import random

import pytest
from factor_reference import complexity, contains, factors, palindrome_rows
from lemma_reference import (PARITY_CASES, classify_tower_centers,
                             clause_ranges, palindromic_extensions,
                             parity_table_p, t_map, t_map_palindrome_check)

import betawords.palindromes as palindromes_module
from betawords import (
    EPSILON,
    FactorLanguage,
    InvalidInputError,
    QuadraticParams,
    RenyiExpansion,
    UnsupportedVariantError,
    VerificationError,
    center_evolution,
    center_of,
    closed_form_delta_c,
    closed_form_p,
    factor_complexity,
    infinite_branches,
    is_palindrome,
    palindromic_complexity,
    parry_substitution,
    quadratic_substitution,
    t_orbit,
    tower_intervals,
    uv_tower,
    verify_identities,
)
from betawords.palindromes import is_central_factor

P31 = QuadraticParams(3, 1)


@pytest.fixture(scope="module")
def lang31():
    return FactorLanguage(quadratic_substitution(P31))


def oracle_columns(params, n_max):
    """C(0) .. C(n_max+3) and P(0) .. P(n_max+2) from one oracle."""
    lang = FactorLanguage(quadratic_substitution(params))
    return lang.complexities(n_max + 3), lang.palindrome_counts(n_max + 2)


class TestCenters:
    def test_examples(self):
        assert center_of("0100010") == "0"
        assert center_of("00") == EPSILON
        assert center_of("1") == "1"

    def test_non_palindrome_rejected(self):
        with pytest.raises(InvalidInputError):
            center_of("01")

    def test_evolution_both_odd(self):
        assert [center_evolution(c, P31) for c in (EPSILON, "0", "1")] == \
            ["1", "0", "0"]

    def test_evolution_both_even(self):
        params = QuadraticParams(4, 2)
        assert [center_evolution(c, params) for c in (EPSILON, "0", "1")] == \
            ["1", EPSILON, EPSILON]

    def test_evolution_matches_t_map(self, lang31):
        # iterate on actual palindromes and compare with the symbolic map
        for seed in ("0", "1", "00", "010"):
            word, center = seed, center_of(seed)
            for _ in range(3):
                word = t_map(word, P31)
                center = center_evolution(center, P31)
                assert center_of(word) == center

    def test_evolution_cycle_lengths(self):
        # period 2 for b even, 3 for b odd & a even, fixed point 0 both odd
        def orbit(params):
            seen, c = [], "0" if params.a % 2 else EPSILON
            for _ in range(6):
                seen.append(c)
                c = center_evolution(c, params)
            return seen

        both_odd = orbit(QuadraticParams(3, 1))
        assert set(both_odd[1:]) == {"0"}
        b_even = [center_evolution(c, QuadraticParams(5, 2)) for c in (EPSILON, "1")]
        assert b_even == ["1", EPSILON]  # eps <-> 1 with period two
        a_even_b_odd = QuadraticParams(4, 1)
        c = "0"
        cycle = []
        for _ in range(4):
            c = center_evolution(c, a_even_b_odd)
            cycle.append(c)
        assert cycle == [EPSILON, "1", "0", EPSILON]


class TestExtensions:
    def test_v_word_has_two(self, lang31):
        assert palindromic_extensions("0", lang31) == frozenset({"0", "1"})

    def test_u_word_is_maximal(self, lang31):
        assert palindromic_extensions("00", lang31) == frozenset()

    def test_ordinary_palindrome_has_one(self, lang31):
        assert palindromic_extensions("010", lang31) == frozenset({"0"})

    def test_non_factor_rejected(self, lang31):
        with pytest.raises(InvalidInputError):
            palindromic_extensions("11", lang31)

    def test_non_palindrome_rejected(self, lang31):
        with pytest.raises(InvalidInputError):
            palindromic_extensions("01", lang31)

    @pytest.mark.parametrize("a,b", [(3, 1), (4, 2), (4, 1), (5, 2)])
    def test_trichotomy(self, a, b):
        params = QuadraticParams(a, b)
        lang = FactorLanguage(quadratic_substitution(params))
        tower = uv_tower(params, 8)
        depth = min(len(tower.u_words), len(tower.v_words))
        u_words, v_words = set(tower.u_words[:depth]), set(tower.v_words[:depth])
        for n in range(0, 61):
            for word, extensions in lang.palindrome_extensions(n).items():
                if word in u_words:
                    assert extensions == frozenset()
                elif word in v_words:
                    assert extensions == frozenset({"0", "1"})
                elif n > 0:
                    assert len(extensions) == 1


class TestTMapPreservation:
    def test_palindrome_preserved(self, lang31):
        report = t_map_palindrome_check("0", P31, lang31)
        assert report["is_pal_p"] and report["is_pal_Tp"]
        assert report["ext_p"] == report["ext_Tp"] == frozenset({"0", "1"})

    def test_non_palindrome_stays_non_palindrome(self, lang31):
        report = t_map_palindrome_check("01", P31, lang31)
        assert not report["is_pal_p"] and not report["is_pal_Tp"]

    def test_maximal_stays_maximal(self, lang31):
        report = t_map_palindrome_check("00", P31, lang31)
        assert report["ext_p"] == report["ext_Tp"] == frozenset()

    @pytest.mark.parametrize("a,b", [(3, 1), (4, 2), (4, 1)])
    def test_random_factors(self, a, b):
        params = QuadraticParams(a, b)
        lang = FactorLanguage(quadratic_substitution(params))
        rng = random.Random(100 * a + b)
        for _ in range(120):
            n = rng.randint(1, 16)
            w = rng.choice(sorted(factors(lang, n)))
            report = t_map_palindrome_check(w, params, lang)
            assert report["is_pal_p"] == report["is_pal_Tp"]
            if report["is_pal_p"]:
                assert report["ext_p"] == report["ext_Tp"]


class TestTowerCenters:
    @pytest.mark.parametrize("a,b", [(3, 1), (4, 2), (5, 2), (4, 1), (6, 3), (5, 1)])
    def test_observed_match_expected(self, a, b):
        report = classify_tower_centers(QuadraticParams(a, b), 7)
        for row in report["rows"]:
            assert row["u_center"] == row["u_expected"], row
            assert row["v_center"] == row["v_expected"], row
            if "v_in_later_v" in row:
                assert row["v_in_later_v"]

    def test_case_iv_exceptional_maximal_palindromes(self):
        # both odd: U^(1) is the only eps-centered and U^(2) the only
        # 1-centered maximal palindrome
        report = classify_tower_centers(P31, 7)
        centers = [row["u_center"] for row in report["rows"]]
        assert centers[0] == EPSILON and centers[1] == "1"
        assert set(centers[2:]) == {"0"}

    def test_sturmian_rejected(self):
        with pytest.raises(UnsupportedVariantError):
            classify_tower_centers(QuadraticParams(2, 1), 4)


# The paper's per-parity statements, keyed by (a mod 2, b mod 2): the centers
# of U^(1..9) and V^(1..9), one letter each (EPSILON is "e"), the step d with
# V^(n) central in V^(n+d), and the (center, generator) list of the branches.
PAPER_CASES = {
    (1, 0): ("e1e1e1e1e", "e1e1e1e1e", 2,
             [(EPSILON, ("V", 2, -1)), ("1", ("V", 2, 0)), ("0", ("W",))]),
    (0, 0): ("0e1e1e1e1", "e1e1e1e1e", 2,
             [(EPSILON, ("V", 2, -1)), ("1", ("V", 2, 0))]),
    (0, 1): ("0e10e10e1", "0e10e10e1", 3,
             [("0", ("V", 3, -2)), (EPSILON, ("V", 3, -1)), ("1", ("V", 3, 0))]),
    (1, 1): ("e10000000", "000000000", 1, [("0", ("V", 1, 0))]),
}


@pytest.mark.parametrize("case", sorted(PAPER_CASES), ids=str)
def test_centers_and_branches_match_the_paper(case):
    u_centers, v_centers, step, plan = PAPER_CASES[case]
    grid = [(a, b) for a in range(3, 13) for b in range(1, a - 1)
            if (a % 2, b % 2) == case]
    assert grid
    for a, b in grid:
        params = QuadraticParams(a, b)
        rows = classify_tower_centers(params, 9)["rows"]
        assert len(rows) >= 4, (a, b)
        assert "".join(row["u_expected"] for row in rows) == u_centers[:len(rows)]
        assert "".join(row["v_expected"] for row in rows) == v_centers[:len(rows)]
        assert [row["n"] for row in rows if "v_in_later_v" in row] == \
            list(range(1, len(rows) - step + 1)), (a, b)
        specs = infinite_branches(params, 100)
        assert [(s.center, s.generator) for s in specs] == plan, (a, b)


class TestBranches:
    def test_case_iv_single_branch(self):
        specs = infinite_branches(P31, 2000)
        assert [s.center for s in specs] == ["0"]
        assert specs[0].generator == ("V", 1, 0)
        assert specs[0].verified

    def test_case_ii_two_branches(self):
        specs = infinite_branches(QuadraticParams(4, 2), 2000)
        assert [s.center for s in specs] == [EPSILON, "1"]
        assert all(s.verified for s in specs)

    def test_case_i_has_w_tower(self):
        specs = infinite_branches(QuadraticParams(5, 2), 3000)
        assert [s.center for s in specs] == [EPSILON, "1", "0"]
        w_spec = specs[2]
        assert w_spec.generator == ("W",)
        assert w_spec.central_factors[0] == "0"
        assert w_spec.central_factors[1] == t_map("0", QuadraticParams(5, 2))
        assert all(s.verified for s in specs)

    def test_case_iii_three_branches(self):
        specs = infinite_branches(QuadraticParams(4, 1), 3000)
        assert [s.center for s in specs] == ["0", EPSILON, "1"]
        assert all(s.verified for s in specs)

    @pytest.mark.parametrize("a,b", [(3, 1), (4, 2), (5, 2), (4, 1)])
    def test_branch_without_central_factors_is_not_verified(self, a, b):
        # budget 0 fits no central factor; budget 3 fits V^(1) = 00 of (4,2)
        # but not V^(2), so one of its two branches is empty
        for budget in (0, 3):
            for spec in infinite_branches(QuadraticParams(a, b), budget):
                assert spec.verified == bool(spec.central_factors)
        assert not any(s.central_factors for s in
                       infinite_branches(QuadraticParams(a, b), 0))

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidInputError):
            infinite_branches(P31, -1)

    @pytest.mark.parametrize("a,b", [(3, 1), (5, 2)])
    def test_branches_build_no_factor_language(self, monkeypatch, a, b):
        built = []
        real = FactorLanguage.__init__
        monkeypatch.setattr(FactorLanguage, "__init__",
                            lambda self, *args: built.append(args) or real(self, *args))
        specs = infinite_branches(QuadraticParams(a, b), 2000)
        assert specs and all(s.verified for s in specs)
        assert built == []

    def test_word_that_is_no_factor_fails_its_branch(self, monkeypatch):
        # the longest V word of (3, 1) with its first and last letters
        # flipped: still a palindrome with center 0 and the word before it at
        # its center, but it starts with 11, so it is no factor
        def flipped(word, params, cap):
            words = list(t_orbit(word, params, cap))
            words[-1] = "1" + words[-1][1:-1] + "1"
            return iter(words)

        monkeypatch.setattr(palindromes_module, "t_orbit", flipped)
        [spec] = infinite_branches(P31, 2000)
        *_, before, w = spec.central_factors
        assert w.startswith("11") and is_palindrome(w) and center_of(w) == "0"
        assert is_central_factor(before, w)
        assert not contains(FactorLanguage(quadratic_substitution(P31)), w)
        assert not spec.verified

    @pytest.mark.parametrize("a,b", [(5, 2), (7, 2)])
    def test_w_branch_kept_at_budget_zero(self, a, b):
        specs = infinite_branches(QuadraticParams(a, b), 0)
        assert [s.generator[0] for s in specs] == ["V", "V", "W"]
        assert not any(s.verified or s.central_factors for s in specs)

    @pytest.mark.parametrize("a", range(3, 13))
    def test_verified_equals_membership_reference(self, a):
        for b in range(1, a - 1):
            params = QuadraticParams(a, b)
            lang = FactorLanguage(quadratic_substitution(params))
            for budget in (0, 2, 2000):
                for spec in infinite_branches(params, budget):
                    words = spec.central_factors
                    assert spec.verified == (bool(words) and all(
                        is_palindrome(w) and center_of(w) == spec.center
                        and contains(lang, w)
                        and (i == 0 or is_central_factor(words[i - 1], w))
                        for i, w in enumerate(words))), (a, b, budget)


class TestReversalClosure:
    def test_quadratic_closed(self):
        lang = FactorLanguage(quadratic_substitution(P31))
        probe = lang.reversal_closure_probe(50)
        assert probe == {"closed_up_to": 50, "witness": None}

    def test_three_letter_witness(self):
        sub = parry_substitution(RenyiExpansion((2, 1), (1,)))
        lang = FactorLanguage(sub)
        probe = lang.reversal_closure_probe(30)
        assert probe["witness"] is not None
        w = probe["witness"]
        assert contains(lang, w) and not contains(lang, w[::-1])

    def test_palindromes_die_out_for_three_letters(self):
        sub = parry_substitution(RenyiExpansion((2, 1), (1,)))
        lang = FactorLanguage(sub)
        counts = [sum(1 for w in factors(lang, n) if w == w[::-1])
                  for n in range(61)]
        last = max(n for n, c in enumerate(counts) if c > 0)
        assert last < 60
        assert all(c == 0 for c in counts[last + 1 :])


class TestPalindromicComplexity:
    def test_oracle_spot_values_31(self, lang31):
        p = lang31.palindrome_counts(14)
        assert p[0] == 1 and p[1] == 2 and p[2] == 1
        assert p[3] == p[5] == p[7] == 3
        assert p[9] == p[11] == 4
        assert p[13] == 3
        assert all(p[n] == 0 for n in range(4, 15, 2))

    def test_closed_form_spot_values_31(self):
        p = closed_form_p(P31, 14)
        assert p[9] == p[11] == 4
        assert all(p[n] == 0 for n in range(4, 15, 2))

    @pytest.mark.parametrize("a,b", [(3, 1), (4, 1), (4, 2), (5, 2)])
    def test_oracle_equals_closed_form(self, a, b):
        params = QuadraticParams(a, b)
        oracle = FactorLanguage(quadratic_substitution(params))
        closed = palindromic_complexity(params, 60, "closed_form")
        assert oracle.palindrome_counts(60) == closed.column("P")

    def test_bounded_by_four(self):
        for a, b in [(3, 1), (6, 3)]:
            table = palindromic_complexity(QuadraticParams(a, b), 80, "closed_form")
            assert max(table.column("P")) <= 4

    def test_sturmian_oracle(self):
        lang = FactorLanguage(quadratic_substitution(QuadraticParams(2, 1)))
        p = lang.palindrome_counts(61)
        assert all(p[n] == 1 for n in range(0, 62, 2))
        assert all(p[n] == 2 for n in range(1, 62, 2))

    def test_sturmian_closed_form_rejected(self):
        # closed_form_p used to refuse b = a-1; now it gives P = 1, 2, 1, ...
        closed = palindromic_complexity(QuadraticParams(2, 1), 10, "closed_form")
        assert closed.column("P") == [1 + n % 2 for n in range(11)]

    def test_clause_ranges_of_one_parity_never_overlap(self):
        # so parity_table_p may paint the clauses in any order
        n_max = 10 ** 5
        for a in range(2, 41):
            for b in range(1, a):
                params = QuadraticParams(a, b)
                rules = PARITY_CASES[a % 2, b % 2]
                pairs = tower_intervals(params, n_max + 1)
                for clauses in (rules.even, rules.odd):
                    ranges = sorted(
                        (lo, min(hi, n_max)) for clause in clauses
                        for lo, hi
                        in clause_ranges(clause, params, pairs, n_max)
                        if lo < hi)
                    assert all(hi <= lo for (_, hi), (lo, _)
                               in zip(ranges, ranges[1:])), (a, b, ranges)

    def test_parity_table_equals_running_sums(self):
        # the paper's four parity cases against the sums of the tower marks,
        # to n = 10^5 for a <= 10 and 2 * 10^4 above, b = a-1 included
        for a in range(2, 41):
            n_max = 10 ** 5 if a <= 10 else 2 * 10 ** 4
            for b in range(1, a):
                params = QuadraticParams(a, b)
                assert closed_form_p(params, n_max) == \
                    parity_table_p(params, n_max), (a, b)

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(3, 7)
                                     for b in range(1, a - 1)]
                             + [(a, a - 1) for a in range(2, 7)])
    def test_shortest_lengths_equal_the_oracle(self, a, b):
        params = QuadraticParams(a, b)
        oracle = FactorLanguage(quadratic_substitution(params)).palindrome_counts(4)
        for n in range(5):
            assert closed_form_p(params, n) == oracle[: n + 1], n
            table = palindromic_complexity(params, n, "closed_form")
            assert table.column("P") == oracle[: n + 1], n

    @pytest.mark.parametrize("mode", ["oracle", "closed_form"])
    def test_negative_length_rejected(self, mode):
        # as every per-length reader of the oracle does
        if mode == "oracle":
            lang = FactorLanguage(quadratic_substitution(P31))
            readers = [lang.complexities, lang.palindrome_counts]
        else:
            readers = [lambda n: factor_complexity(P31, n, mode),
                       lambda n: palindromic_complexity(P31, n, mode),
                       lambda n: closed_form_p(P31, n),
                       lambda n: closed_form_delta_c(P31, n)]
        for reader in readers:
            for n in (-1, -2):
                with pytest.raises(InvalidInputError, match="nonnegative"):
                    reader(n)

    def test_classification_counts(self, lang31):
        oracle = palindrome_rows(lang31, 30)
        closed = palindromic_complexity(P31, 30, "closed_form")
        for (_, maximal, two_ext), row_c in zip(oracle, closed.rows):
            assert maximal == row_c["maximal_count"]
            assert two_ext == row_c["two_ext_count"]

    def test_csv_export(self):
        table = palindromic_complexity(P31, 3, "closed_form")
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "n,P,maximal_count,two_ext_count,source"


class TestIdentities:
    @pytest.mark.parametrize("a,b", [(3, 1), (4, 2), (4, 1)])
    def test_verify_passes(self, a, b):
        params = QuadraticParams(a, b)
        # raises on a violation
        assert verify_identities(params, *oracle_columns(params, 50)) is None

    def test_spot_checks_31(self, lang31):
        p = [len(lang31.palindrome_extensions(n)) for n in range(12)]
        delta = [complexity(lang31, n + 1) - complexity(lang31, n) for n in range(12)]
        assert p[3] + p[2] == delta[2] + 2 == 4
        assert p[9] + p[8] == delta[8] + 2 == 4
        assert p[9] - p[7] == 1  # n = 7 = |V^(2)|

    def test_sturmian_rejected(self):
        # verify_identities used to refuse b = a-1; now the identities hold
        verify_identities(QuadraticParams(2, 1),
                          *oracle_columns(QuadraticParams(2, 1), 10))

    def test_sturmian_boundary_equals_the_oracle(self):
        # on b = a-1, |V^(k)| = |U^(k)| and their marks cancel: the closed
        # forms give C(n) = n+1 and P(n) = 1, 2, 1, ..., with no maximal or
        # two-extension palindrome, and the identities hold
        n_max = 1000
        for a in range(2, 16):
            params = QuadraticParams(a, a - 1)
            lang = FactorLanguage(quadratic_substitution(params))
            c = lang.complexities(n_max + 3)
            oracle_p = dict(zip(("P", "maximal_count", "two_ext_count"),
                                map(list, zip(*palindrome_rows(lang, n_max + 2)))))
            assert lang.palindrome_counts(n_max + 2) == oracle_p["P"], a
            closed_c = factor_complexity(params, n_max, "closed_form")
            closed_p = palindromic_complexity(params, n_max, "closed_form")
            assert closed_c.column("C") == c[1 : n_max + 1], a
            assert closed_c.column("deltaC") == \
                [c[n + 1] - c[n] for n in range(1, n_max + 1)], a
            for name in ("P", "maximal_count", "two_ext_count"):
                assert closed_p.column(name) == \
                    oracle_p[name][: n_max + 1], (a, name)
            verify_identities(params, c, oracle_p["P"])

    def test_changed_p_names_the_first_broken_identity(self):
        c, p = oracle_columns(P31, 20)
        p[9] += 1
        with pytest.raises(VerificationError) as caught:
            verify_identities(P31, c, p)
        # P(9) - P(7) is checked at n = 7 = |V^(2)| before P(9) + P(8) at n = 8
        assert str(caught.value) == \
            "P(n+2)-P(n) tower rule violated at n=7: expected 1, got 2"
        assert caught.value.context == {
            "params": (3, 1), "n": 7, "identity": "P(n+2)-P(n) tower rule",
            "expected": 1, "actual": 2, "C": c[:23], "P": p[:23]}

    @pytest.mark.parametrize("column,k,expected,actual", [
        # P(2) + P(1) = 1 + 2 against Delta C(1) + 2 = (3 - 2) + 2
        ("P", 1, 3, 4),
        ("C", 2, 4, 3),
    ])
    def test_changed_p1_or_c2_breaks_the_first_identity(self, column, k,
                                                        expected, actual):
        c, p = oracle_columns(P31, 20)
        {"C": c, "P": p}[column][k] += 1
        with pytest.raises(VerificationError) as caught:
            verify_identities(P31, c, p)
        assert str(caught.value) == ("P(n+1)+P(n)=deltaC(n)+2 violated at "
                                     f"n=1: expected {expected}, got {actual}")

    @pytest.mark.parametrize("k", [3, 5, 8, 20])
    def test_changed_c_breaks_the_third_identity_first(self, k):
        # a raised C(k) raises Delta C(k-1), so Delta^2 C(k-2) is one more
        # than P(k) - P(k-2), before the first identity fails at n = k-1
        c, p = oracle_columns(P31, 20)
        c[k] += 1
        with pytest.raises(VerificationError) as caught:
            verify_identities(P31, c, p)
        context = caught.value.context
        assert (context["identity"], context["n"]) == \
            ("delta^2 C(n)=P(n+2)-P(n)", k - 2)
        assert context["expected"] == p[k] - p[k - 2]
        assert context["actual"] == context["expected"] + 1

    @pytest.mark.parametrize("c_len,p_len", [(24, 22), (23, 23), (4, 3), (0, 0)])
    def test_bad_column_lengths_rejected(self, c_len, p_len):
        # n_max = len(p) - 3 must be >= 1 and len(c) must be n_max + 4
        c, p = oracle_columns(P31, 20)
        with pytest.raises(InvalidInputError):
            verify_identities(P31, c[:c_len], p[:p_len])

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(3, 16)
                                     for b in range(1, a - 1)])
    def test_closed_forms_satisfy_identities_at_large_n(self, a, b):
        # the identities of verify_identities, with both sides read off the
        # closed forms, far past the lengths the oracle reaches; and one
        # maximal palindrome at each |U^(k)|, one with two extensions at
        # each |V^(k)|, counted as ints (str() of them is hashed downstream)
        params, n_max = QuadraticParams(a, b), 20000
        p = closed_form_p(params, n_max + 2)
        delta = [None] + closed_form_delta_c(params, n_max + 1)
        pairs = tower_intervals(params, n_max + 1)
        v_lengths, u_lengths = {v for v, _ in pairs}, {u for _, u in pairs}
        for n in range(1, n_max + 1):
            jump = p[n + 2] - p[n]
            assert p[n + 1] + p[n] == delta[n] + 2, n
            assert jump == (1 if n in v_lengths else -1 if n in u_lengths else 0), n
            assert delta[n + 1] - delta[n] == jump, n
        table = palindromic_complexity(params, n_max, "closed_form")
        for name, lengths in (("maximal_count", u_lengths),
                              ("two_ext_count", v_lengths)):
            column = table.column(name)
            assert column == [int(n in lengths) for n in range(n_max + 1)], name
            assert {type(count) for count in column} == {int}, name
