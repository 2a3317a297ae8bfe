"""The factor oracle against independent scans of long fixed-point prefixes."""

import copy
import time
import tracemalloc

import pytest
from factor_reference import (complexity, contains, factors, left_special_factors,
                              palindrome_rows)
from factor_reference import reversal_closure_probe as reference_probe
from hypothesis import assume, given, settings, strategies as st
from lemma_reference import images_of, runs_of

from betawords import language
from betawords import (
    FactorLanguage,
    InvalidInputError,
    QuadraticParams,
    RenyiExpansion,
    Substitution,
    fixed_point_prefix,
    parry_check,
    parry_substitution,
    quadratic_substitution,
)

# Every length-60 factor of these subjects occurs in their first 889 letters.
PREFIX = 10_000
N_MAX = 60
BENCHMARK_DIGITS = ["3 (1)", "4 (2)", "3 1 (2)", "3 (2 1)", "2 1 (1)"]
SUBJECTS = [f"{a},{b}" for a in range(3, 9) for b in range(1, a - 1)] \
    + BENCHMARK_DIGITS


def substitution_of(subject: str) -> Substitution:
    if "(" in subject:
        return parry_substitution(RenyiExpansion.parse(subject))
    a, b = map(int, subject.split(","))
    return quadratic_substitution(QuadraticParams(a, b))


def scan(word: str, n: int) -> set[str]:
    return {word[i : i + n] for i in range(len(word) - n + 1)}


@pytest.mark.parametrize("subject", SUBJECTS)
def test_factors_equal_prefix_scan(subject):
    sub = substitution_of(subject)
    prefix = fixed_point_prefix(sub, PREFIX)
    lang = FactorLanguage(sub)
    for n in range(N_MAX + 1):
        assert factors(lang, n) == scan(prefix, n), n


# The 21 points with a <= 8 and Parry expansions over larger alphabets.  Every
# length-122 factor of these occurs in their first 7724 letters.
TABLE_SUBJECTS = [f"{a},{b}" for a in range(3, 9) for b in range(1, a - 1)] \
    + ["3 1 (2)", "3 (2 1)", "2 1 (1)", "4 1 1 (2 1)"]
TABLE_N = 120


@pytest.mark.parametrize("subject", TABLE_SUBJECTS)
def test_one_pass_tables_equal_prefix_scan(subject):
    sub = substitution_of(subject)
    prefix = fixed_point_prefix(sub, 8000)
    scans = [scan(prefix, n) for n in range(TABLE_N + 3)]
    lang = FactorLanguage(sub)
    assert lang.complexities(TABLE_N) == list(map(len, scans[: TABLE_N + 1]))
    counts, rows = lang.palindrome_counts(TABLE_N), palindrome_rows(lang, TABLE_N)
    for n in range(TABLE_N + 1):
        extensions = {w: frozenset(z for z in scans[1] if z + w + z in scans[n + 2])
                      for w in scans[n] if w == w[::-1]}
        assert lang.palindrome_extensions(n) == extensions, n
        assert counts[n] == len(extensions), n
        assert rows[n] == row_of(extensions), n


def row_of(extensions):
    """(P, maximal, two-extension) of the palindromes of one length, given
    each with its extensions."""
    return (len(extensions), sum(not ext for ext in extensions.values()),
            sum(len(ext) >= 2 for ext in extensions.values()))


# palindromes up to length 60 that extend by a letter past 1 alone; a reader
# of the columns of 0 and 1 alone would count them maximal
@pytest.mark.parametrize("subject, past_one", [("3 3 (3 2)", 4),
                                               ("1 1 1 (1 0)", 6),
                                               ("2 1 (0 1)", 1)])
def test_extensions_read_every_letter(subject, past_one):
    lang = FactorLanguage(substitution_of(subject))
    letters = factors(lang, 1)
    counts, rows = lang.palindrome_counts(N_MAX), palindrome_rows(lang, N_MAX)
    found = 0
    for n in range(N_MAX + 1):
        longer = factors(lang, n + 2)
        extensions = {w: frozenset(z for z in letters if z + w + z in longer)
                      for w in factors(lang, n) if w == w[::-1]}
        assert lang.palindrome_extensions(n) == extensions, n
        assert counts[n] == len(extensions), n
        assert rows[n] == row_of(extensions), n
        found += sum(bool(ext) and not ext & {"0", "1"}
                     for ext in extensions.values())
    assert found == past_one
    if subject == "3 3 (3 2)":
        assert lang.palindrome_extensions(15)["000100010001000"] == {"2"}
        assert counts[15] == 3 and rows[15] == (3, 0, 0)


@pytest.mark.parametrize("subject", ["3,1", "5,2", "3 (2 1)"])
def test_tables_truncate(subject):
    # a table for a larger length starts with the table for a smaller one
    lang = FactorLanguage(substitution_of(subject))
    assert lang.complexities(N_MAX)[:11] == lang.complexities(10)
    assert lang.palindrome_counts(N_MAX)[:11] == lang.palindrome_counts(10)
    assert lang.complexities(0) == [1]
    assert lang.palindrome_counts(0) == lang.palindrome_counts(1)[:1]


def test_slowly_growing_expansion():
    # Letters 1 and 2 map to single letters: a prefix of 128 n letters misses
    # factors (C(2) = 10 instead of 11), and the two-letter factors first all
    # appear after 1100 letters.
    sub = substitution_of("3 0 0 (0 1)")
    prefix = fixed_point_prefix(sub, 50_000)
    lang = FactorLanguage(sub)
    assert complexity(lang, 2) == 11
    for n in range(13):
        assert factors(lang, n) == scan(prefix, n), n
    assert FactorLanguage(sub).complexities(12) == [
        len(scan(prefix, n)) for n in range(13)]


@pytest.mark.parametrize("subject", ["3,1", "6,1", "8,6", "3 (2 1)"])
def test_one_top_scan_equals_scans_in_increasing_order(subject):
    sub = substitution_of(subject)
    top_first = FactorLanguage(sub)
    # factor sets do not depend on the order in which lengths are asked
    factors(top_first, N_MAX)
    ascending = FactorLanguage(sub)
    for n in range(1, N_MAX + 1):
        assert factors(top_first, n) == factors(ascending, n), n


# the last three have more than two letters, and "3 0 0 (0 1)" has the
# most uneven blocks
@pytest.mark.parametrize("subject", ["3,1", "5,2", "7,5", "3 (2 1)",
                                     "4 1 1 (2 1)", "3 0 0 (0 1)"])
def test_contains_matches_factor_sets(subject):
    lang = FactorLanguage(substitution_of(subject))
    assert contains(lang, "")
    assert not contains(lang, "11")
    letters = factors(lang, 1)
    for n in (1, 5, 17, 40):
        words = factors(lang, n)
        assert all(contains(lang, w) for w in words)
        for w in words:
            for z in letters:
                assert contains(lang, w + z) == (w + z in factors(lang, n + 1))


class WholeBlocks(FactorLanguage):
    """The oracle with each whole block phi^k(c) in its windows, grown letter
    by letter from the identity: the reference for the cut blocks.  It reads
    phi off the images written out itself, so that it shares no code with
    the cut it checks."""

    def __init__(self, substitution):
        super().__init__(substitution)
        self.phi = {chr(ord("0") + j): image
                    for j, image in enumerate(images_of(substitution))}

    def _windows(self, n):
        whole, cut = {c: c for c in self._letters}, max(n - 1, 0)
        # phi^k(c), the phi^(k-1)(d) of each letter d of phi(c) joined, from
        # k = 1 to the first k with every block of n letters or more
        while True:
            whole = {c: "".join(whole[d] for d in self.phi[c]) for c in whole}
            if min(map(len, whole.values())) >= n:
                break
        return [*whole.values()] + [
            whole[x][len(whole[x]) - cut:] + whole[y][:cut]
            for x, y in sorted(self.two_factors)]


# 46 letters, up to "]", among them "?", "[", "\\" and "]"
WIDE_SUBJECT = "3 (" + " ".join(["1"] * 45) + ")"
# every (a, b) with a <= 12, the Sturmian b = a - 1 included, expansions
# whose images start with runs of other lengths (t = 0 and t = 1 included),
# two with large a, and the wide one
CUT_SUBJECTS = [f"{a},{b}" for a in range(2, 13) for b in range(1, a)] \
    + ["3 1 (2)", "3 (2 1)", "4 1 1 (2 1)", "3 0 0 (0 1)", "200,1", "60,7",
       WIDE_SUBJECT]
# at large a, n near a block size: at (200, 1), |phi(0)| = 201, so the
# palindromes for n = 201, read at n + 2, need phi^2(c), each run of phi(0)
# in it cut to three copies
CUT_LENGTHS = {"200,1": (3, 201), "60,7": (9, 62, 436)}
CUT_DEFAULT_LENGTHS = (1, 2, 3, 5, 13, 40, 121, 500)


@pytest.mark.parametrize("subject", CUT_SUBJECTS)
def test_cut_blocks_read_as_whole_blocks(subject):
    sub = substitution_of(subject)
    cut, whole = FactorLanguage(sub), WholeBlocks(sub)
    for n in CUT_LENGTHS.get(subject, CUT_DEFAULT_LENGTHS):
        assert cut.complexities(n) == whole.complexities(n), n
        assert cut.palindrome_counts(n) == whole.palindrome_counts(n), n
        assert palindrome_rows(cut, n) == palindrome_rows(whole, n), n
        words = sorted(factors(cut, n))
        assert words == sorted(factors(whole, n)), n
        # the first and last factors, and the words one letter off them
        for w in words[:3] + words[-3:]:
            for v in (w, w[:-1] + "0", w[:-1] + "1", "1" + w[1:], w[::-1]):
                assert contains(cut, v) == contains(whole, v), (n, v)


# the count checked against the bound is the joined windows' letters: at that
# many letters the oracle answers, and at one less it refuses.  The wide
# subject comes last, so that every other case keeps its place and its id
BOUND_CASES = [(s, CUT_LENGTHS.get(s, CUT_DEFAULT_LENGTHS))
               for s in CUT_SUBJECTS if s != WIDE_SUBJECT] \
    + [(f"{a},{b}", (1, 2, 41, 1000)) for a in range(3, 7) for b in range(1, a - 1)] \
    + [(WIDE_SUBJECT, CUT_DEFAULT_LENGTHS)]


@pytest.mark.parametrize("subject, lengths", BOUND_CASES)
def test_window_bound_counts_the_joined_windows(subject, lengths):
    sub = substitution_of(subject)
    for n in lengths:
        windows = FactorLanguage(sub)._windows(n)
        letters = sum(map(len, windows))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(language, "MAX_WINDOW_LETTERS", letters)
            assert FactorLanguage(sub)._windows(n) == windows, n
            patch.setattr(language, "MAX_WINDOW_LETTERS", letters - 1)
            with pytest.raises(InvalidInputError, match="past the bound"):
                FactorLanguage(sub)._windows(n)


def test_windows_past_the_bound_grow_no_image():
    # the windows for 10^5 + 4 of 3 0 0 0 (0 1), whose images grow slowly,
    # hold 12.2 million letters with every run cut, 4.4 million of them in
    # the block of 0: refused from the cut sizes before any block is
    # joined, so the refusal allocates a few kilobytes at its peak
    lang = FactorLanguage(substitution_of("3 0 0 0 (0 1)"))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="the windows are past the bound"):
            lang._windows(10 ** 5 + 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# every a up to 60, and larger a up to 10^6, with b at both ends and in the
# middle, at the lengths the CLI asks at its bound of 10^5 and one more:
# `specials` reads the windows for 10^5 + 1, `palindromes` those for
# 10^5 + 2, and `analyze` and `verify` those for 10^5 + 3 (C to n + 3 from
# the automaton for n + 3, P to n + 2 from the eertree for n + 2).  With
# every run cut, the most is 1.6 million letters up to 10^5 + 3, at (45, 1),
# and 1.7 million at 10^5 + 4, at (10^5, 1), so no quadratic input the CLI
# accepts nears the bound
def test_quadratic_windows_stay_far_below_the_bound():
    for a in [*range(2, 61), 100, 300, 10 ** 3, 3 * 10 ** 3, 10 ** 4,
              3 * 10 ** 4, 10 ** 5, 10 ** 6]:
        for b in {1, 2, a // 2, a - 2, a - 1} & set(range(1, a)):
            lang = FactorLanguage(quadratic_substitution(QuadraticParams(a, b)))
            for n in range(10 ** 5 + 1, 10 ** 5 + 5):
                assert sum(map(len, lang._windows(n))) <= 2 * 10 ** 6, (a, b, n)


@pytest.mark.parametrize("subject", CUT_SUBJECTS)
def test_windows_do_not_depend_on_the_lengths_asked_before(subject):
    # from the longest length down, on one oracle, which no call changes
    sub = substitution_of(subject)
    lang = FactorLanguage(sub)
    before = copy.deepcopy(vars(lang))
    for n in sorted({0, *CUT_LENGTHS.get(subject, CUT_DEFAULT_LENGTHS)},
                    reverse=True):
        assert lang._windows(n) == FactorLanguage(sub)._windows(n), n
        assert vars(lang) == before, n


@pytest.mark.parametrize("subject", ["3,1", "15,1", "3 (2 1)", "3 0 0 (0 1)"])
def test_no_reader_changes_the_oracle(subject):
    lang = FactorLanguage(substitution_of(subject))
    before = copy.deepcopy(vars(lang))
    readers = [lang.complexities, lang.palindrome_counts,
               lang.palindrome_extensions, lang.left_special_factors,
               lang.reversal_closure_probe]
    for n in (40, 3, 0):
        for reader in readers:
            reader(n)
            assert vars(lang) == before, (reader, n)


def test_short_readers_after_a_long_table_read_their_own_windows(monkeypatch):
    # after the table at n = 10^4, the readers of lengths 6 and 7 read the
    # windows a fresh oracle reads for them, not those for 10^4
    sub = quadratic_substitution(QuadraticParams(15, 1))
    lang = FactorLanguage(sub)
    lang.complexities(10 ** 4)
    read, join = [], language._text
    monkeypatch.setattr(language, "_text",
                        lambda windows: read.append(windows) or join(windows))
    after = lang.left_special_factors(6), lang.palindrome_extensions(7)
    fresh = FactorLanguage(sub)
    assert after == (fresh.left_special_factors(6),
                     fresh.palindrome_extensions(7))
    assert len(read) == 4 and read[:2] == read[2:]


def test_two_letter_factors():
    assert FactorLanguage(substitution_of("3,1")).two_factors == {"00", "01", "10"}
    assert "11" not in FactorLanguage(substitution_of("3 (2 1)")).two_factors


@pytest.mark.parametrize("images", [
    ("01", "1"),          # 1 -> 1
    ("012", "2", "1"),    # 1 -> 2 -> 1
])
def test_non_growing_substitution_raises_promptly(images):
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="never grows"):
        FactorLanguage(Substitution(runs_of(images)))
    assert time.perf_counter() - start < 1.0


def test_negative_length_rejected():
    lang = FactorLanguage(substitution_of("3,1"))
    readers = [lambda n: factors(lang, n), lang.complexities,
               lang.palindrome_counts, lang.palindrome_extensions,
               lang.left_special_factors, lang.reversal_closure_probe]
    for reader in readers:
        for n in (-1, -3):
            with pytest.raises(InvalidInputError):
                reader(n)


# every (a, b) with a <= 9, the Sturmian b = a - 1 included, and Parry
# expansions over larger alphabets, "3 0 0 (0 1)" with the most uneven blocks
READER_SUBJECTS = [f"{a},{b}" for a in range(2, 10) for b in range(1, a)] \
    + ["3 1 (2)", "3 (2 1)", "4 1 1 (2 1)", "2 1 (1)", "3 0 0 (0 1)"]


@pytest.mark.parametrize("subject", READER_SUBJECTS)
def test_automaton_readers_equal_factor_sets(subject):
    sub = substitution_of(subject)
    lang = FactorLanguage(sub)
    for n in [*range(41), 77, 150]:
        assert lang.left_special_factors(n) == left_special_factors(lang, n), n
    for window in (1, 5, 20, 60):
        assert lang.reversal_closure_probe(window) \
            == reference_probe(lang, window), window


@st.composite
def parry_expansions(draw):
    preperiod = draw(st.lists(st.integers(0, 3), max_size=1))
    period = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    renyi = RenyiExpansion((draw(st.integers(2, 3)), *preperiod), tuple(period))
    assume(not renyi.is_simple and parry_check(renyi)[0])
    return renyi


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(parry_expansions())
def test_random_parry_expansions_equal_prefix_scan(renyi):
    sub = parry_substitution(renyi)
    # every length-8 factor of these expansions occurs in their first 3549
    # letters
    prefix = fixed_point_prefix(sub, 20_000)
    lang = FactorLanguage(sub)
    for n in range(9):
        assert factors(lang, n) == scan(prefix, n), (str(renyi), n)
