"""Checks of the paper's lemmas and of properties of the substitutions, kept
as a reference for tests.

The bridge between images written out and the runs a `Substitution` holds,
both ways; a substitution applied letter by letter, and the fixed-point prefix it
grows from the axiom; the map T, w -> 0^b 1 phi(w) 0^b, letter by letter;
the palindromic extensions of a palindrome, read by membership; the report
that T keeps palindromes and their extension sets; the observed and
expected centers of the materialized tower words; the letter counts,
incidence matrix and primitivity of a substitution; and the paper's
closed-form P(n), four parity cases of clauses over the tower lengths.  No
command calls them: the package reads prefixes off the levels phi^k(c)
with `substitution.fixed_point_prefix`, builds T-images with
`complexity.t_orbit`, reads extensions off the eertree and the centers off
`palindromes.center_evolution`, and sums the tower marks for P(n) in
`palindromes.closed_form_p`.  The tests check those against these.
"""

from __future__ import annotations

from itertools import groupby

from factor_reference import contains

from betawords.beta_numeration import QuadraticParams, _Frozen
from betawords.complexity import tower_intervals, uv_tower
from betawords.errors import InvalidInputError, UnsupportedVariantError
from betawords.language import FactorLanguage
from betawords.palindromes import (_v_centers, center_evolution, center_of,
                                   is_central_factor, is_palindrome)
from betawords.substitution import Substitution, letter, quadratic_substitution


def runs_of(images) -> tuple:
    """Images written out, such as ("0001", "01"), as the maximal runs (d, t)
    of each, which a `Substitution` takes."""
    return tuple(tuple((d, sum(1 for _ in run)) for d, run in groupby(image))
                 for image in images)


def images_of(substitution: Substitution) -> tuple[str, ...]:
    """The images of a substitution written out from their runs."""
    return tuple("".join(d * t for d, t in runs) for runs in substitution.runs)


def apply(substitution: Substitution, word: str) -> str:
    """phi(word), images applied letterwise."""
    images = images_of(substitution)
    # translate passes unknown characters through, so count them first
    if sum(word.count(letter(j)) for j in range(len(images))) != len(word):
        raise InvalidInputError("word uses a letter outside the alphabet")
    return word.translate({ord(letter(j)): image for j, image in enumerate(images)})


def reference_prefix(substitution: Substitution, length: int) -> str:
    """The first `length` letters of the fixed point: phi applied to the
    whole word from the axiom 0 until it is long enough, then cut."""
    word = "0"
    while len(word) < length:
        word = apply(substitution, word)
    return word[:length]


def t_map(word: str, params: QuadraticParams) -> str:
    """The language-preserving map w -> 0^b 1 phi(w) 0^b."""
    zeros = "0" * params.b
    return zeros + "1" + apply(quadratic_substitution(params), word) + zeros


def palindromic_extensions(word: str, lang: FactorLanguage) -> frozenset[str]:
    """Letters z with z word z in the language."""
    if not is_palindrome(word):
        raise InvalidInputError(f"{word!r} is not a palindrome")
    if not contains(lang, word):
        raise InvalidInputError(f"{word!r} is not a factor")
    return frozenset(
        z for z in ("0", "1") if contains(lang, z + word + z)
    )


def t_map_palindrome_check(word: str, params: QuadraticParams,
                           lang: FactorLanguage) -> dict:
    """Report for the palindrome-preservation property of T.

    For any factor p: p is a palindrome iff T(p) is, and both have the same
    palindromic-extension set.
    """
    if not contains(lang, word):
        raise InvalidInputError(f"{word!r} is not a factor")
    image = t_map(word, params)
    report = {
        "word": word,
        "t_word": image,
        "is_pal_p": is_palindrome(word),
        "is_pal_Tp": is_palindrome(image),
    }
    if report["is_pal_p"]:
        report["ext_p"] = palindromic_extensions(word, lang)
        report["ext_Tp"] = palindromic_extensions(image, lang)
    return report


def classify_tower_centers(params: QuadraticParams, depth: int) -> dict:
    """Observed vs expected centers of the materialized tower words."""
    if params.is_sturmian:
        raise UnsupportedVariantError("towers are undefined for b = a-1")
    tower = uv_tower(params, depth)
    u_words, v_words = tower.u_words, tower.v_words
    materialized = min(len(u_words), len(v_words))
    cycle = _v_centers(params)
    step = len(cycle)
    u_expected = center_of("0" * (params.a - 1))  # U^(1)
    rows = []
    for n in range(1, materialized + 1):
        u, v = u_words[n - 1], v_words[n - 1]
        row = {
            "n": n,
            "u_center": center_of(u),
            "v_center": center_of(v),
            "u_expected": u_expected,
            "v_expected": cycle[(n - 1) % step],
        }
        if n + step <= materialized:
            row["v_in_later_v"] = is_central_factor(v, v_words[n + step - 1])
        rows.append(row)
        u_expected = center_evolution(u_expected, params)
    return {"params": (params.a, params.b), "rows": rows}


def word_counts(word: str, alphabet_size: int) -> tuple[int, ...]:
    """Letter-count vector of a word."""
    return tuple(word.count(letter(j)) for j in range(alphabet_size))


def incidence_matrix(substitution: Substitution) -> list[list[int]]:
    """M[i][j] = number of occurrences of letter i in phi(j)."""
    images = images_of(substitution)
    k = len(images)
    return [[images[j].count(letter(i)) for j in range(k)] for i in range(k)]


def is_primitive(substitution: Substitution) -> bool:
    """Some small power of the incidence matrix is entrywise positive.

    Powers are taken up to the Wielandt bound (k-1)^2 + 1, which decides
    primitivity for every k x k nonnegative matrix.
    """
    k = len(substitution.runs)
    m = incidence_matrix(substitution)
    power = m
    for _ in range((k - 1) ** 2 + 1):
        if all(all(x > 0 for x in row) for row in power):
            return True
        power = _matmul(power, m)
    return False


def _matmul(x, y):
    n = len(x)
    return [
        [sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# The paper's closed-form palindromic complexity: the four parity cases
# ---------------------------------------------------------------------------

class UptoClause(_Frozen):
    """value applies when n <= bound (bound is "a-1" or "b")."""

    __slots__ = ("bound", "value")

    def __init__(self, bound: str, value: int):
        self._set(bound=bound, value=value)


class IntervalClause(_Frozen):
    """value applies when |V^(vc*k+vo)| < n <= |U^(uc*k+uo)| for some k > 0."""

    __slots__ = ("vc", "vo", "uc", "uo", "value")

    def __init__(self, vc: int, vo: int, uc: int, uo: int, value: int):
        self._set(vc=vc, vo=vo, uc=uc, uo=uo, value=value)


class ParityRules(_Frozen):
    __slots__ = ("even", "even_default", "odd", "odd_default")

    def __init__(self, even: tuple, even_default: int, odd: tuple,
                 odd_default: int):
        self._set(even=even, even_default=even_default, odd=odd,
                  odd_default=odd_default)


# Keyed by (a mod 2, b mod 2).
PARITY_CASES: dict[tuple[int, int], ParityRules] = {
    # b even, a odd
    (1, 0): ParityRules(
        even=(IntervalClause(2, -1, 2, -1, 2),),
        even_default=1,
        odd=(IntervalClause(2, 0, 2, 0, 3),),
        odd_default=2,
    ),
    # both even
    (0, 0): ParityRules(
        even=(IntervalClause(2, -1, 2, 0, 2),),
        even_default=1,
        odd=(UptoClause("a-1", 2), IntervalClause(2, 0, 2, 1, 2)),
        odd_default=1,
    ),
    # b odd, a even
    (0, 1): ParityRules(
        even=(IntervalClause(3, -1, 3, -1, 2),),
        even_default=1,
        # k = 1, 3, 4, 6, 7, ...: every k but 2 mod 3
        odd=(IntervalClause(3, -2, 3, -2, 3), IntervalClause(3, 0, 3, 0, 3)),
        odd_default=2,
    ),
    # both odd
    (1, 1): ParityRules(
        even=(UptoClause("a-1", 1),),
        even_default=0,
        odd=(UptoClause("b", 2), IntervalClause(1, 1, 1, 1, 4)),
        odd_default=3,
    ),
}


def clause_ranges(clause, params: QuadraticParams, pairs: list[tuple[int, int]],
                   n_max: int) -> list[tuple[int, int]]:
    """The ranges (lo, hi] of n on which a clause holds, given the tower pairs
    (|V^(k)|, |U^(k)|) of every k with |V^(k)| <= n_max.

    A U index past the pairs has |U^(j)| > |V^(j)| > n_max, so it reads as
    n_max.
    """
    if isinstance(clause, UptoClause):
        return [(-1, params.a - 1 if clause.bound == "a-1" else params.b)]
    ranges = []
    for k in range(1, (len(pairs) - clause.vo) // clause.vc + 1):
        u_idx = clause.uc * k + clause.uo
        hi = pairs[u_idx - 1][1] if u_idx <= len(pairs) else n_max
        ranges.append((pairs[clause.vc * k + clause.vo - 1][0], hi))
    return ranges


def parity_table_p(params: QuadraticParams, n_max: int) -> list[int]:
    """P(n) for 0 <= n <= n_max from the parity-case table: each clause is
    painted over its ranges, on the per-parity default."""
    rules = PARITY_CASES[params.a % 2, params.b % 2]
    pairs = tower_intervals(params, n_max + 1)
    values = [rules.even_default, rules.odd_default] * (n_max // 2 + 1)
    del values[n_max + 1:]
    for parity, clauses in ((0, rules.even), (1, rules.odd)):
        for clause in clauses:
            for lo, hi in clause_ranges(clause, params, pairs, n_max):
                first = lo + 1 + (lo + 1 - parity) % 2
                for n in range(first, min(hi, n_max) + 1, 2):
                    values[n] = clause.value
    return values
