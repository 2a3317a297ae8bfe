from fractions import Fraction
from itertools import accumulate, product

import mpf_reference
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpf_reference import (beta_expand as mpf_beta_expand, beta_integers,
                           beta_of, beta_of_renyi, beta_reconstruct,
                           exact_beta, gap_distances, unity_defect)
from mpmath import mpf, workdps

from betawords import (
    DigitCountError,
    InvalidInputError,
    InvalidParamsError,
    QuadraticParams,
    RenyiExpansion,
    VerificationError,
    beta_expand,
    beta_integer_decimals,
    fixed_point_prefix,
    parry_check,
    parry_substitution,
    quadratic_substitution,
    renyi_of_quadratic,
)
from betawords.substitution import letter


# the benchmark's four expansions and the non-minimal "2 1 (1)"
BENCHMARK_DIGITS = ["3 (1)", "4 (2)", "3 1 (2)", "3 (2 1)", "2 1 (1)"]


def two_rule_minimal(renyi):
    """is_minimal as two rules: no period dividing p is shorter, and the last
    preperiod digit differs from the last period digit."""
    m, p = renyi.m, renyi.p
    for q in range(1, p):
        if p % q == 0 and all(
            renyi.period[i] == renyi.period[i % q] for i in range(p)
        ):
            return False
    if m >= 1 and renyi.preperiod[-1] == renyi.period[-1]:
        return False
    return True


# every expansion with m <= 3, p <= 4, digits 0..3 and t_1 >= 1
CONSTRUCTIBLE = [RenyiExpansion(digits[:m], digits[m:])
                 for m in range(4) for p in range(1, 5)
                 for digits in product(range(4), repeat=m + p) if digits[0]]


class TestRenyiExpansion:
    def test_basic_fields(self):
        r = RenyiExpansion((3,), (1,))
        assert r.m == 1 and r.p == 1
        assert r.digits(5) == (3, 1, 1, 1, 1)

    def test_t1_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            RenyiExpansion((0,), (1,))

    def test_empty_period_rejected(self):
        with pytest.raises(InvalidInputError):
            RenyiExpansion((2,), ())

    def test_negative_digit_rejected(self):
        with pytest.raises(InvalidInputError):
            RenyiExpansion((2, -1), (1,))

    def test_simple_flag(self):
        assert RenyiExpansion((2, 1), (0,)).is_simple
        assert not RenyiExpansion((3,), (1,)).is_simple

    def test_minimality(self):
        assert RenyiExpansion((3,), (1,)).is_minimal
        # 2 1 (1) collapses to 2 (1)
        assert not RenyiExpansion((2, 1), (1,)).is_minimal
        # period (2, 2) collapses to (2)
        assert not RenyiExpansion((3,), (2, 2)).is_minimal
        # a period digit that ends the preperiod is absorbed by a rotation
        assert str(RenyiExpansion.parse("4 1 1 (2 1)").minimal()) == "4 1 (1 2)"
        # the period shrinks first, then takes in the whole preperiod
        assert str(RenyiExpansion.parse("2 1 2 (1 2 1 2)").minimal()) == "(2 1)"

    def test_minimal_keeps_the_sequence_and_is_idempotent(self):
        for renyi in CONSTRUCTIBLE:
            minimal = renyi.minimal()
            places = 2 * (renyi.m + renyi.p) + 2
            assert minimal.digits(places) == renyi.digits(places), renyi
            assert minimal.minimal() == minimal, renyi

    def test_is_minimal_equals_the_two_rule_definition(self):
        assert [r.is_minimal for r in CONSTRUCTIBLE] == list(
            map(two_rule_minimal, CONSTRUCTIBLE))

    def test_parse_roundtrip(self):
        r = RenyiExpansion.parse("2 1 (3 1)")
        assert r.preperiod == (2, 1) and r.period == (3, 1)
        assert RenyiExpansion.parse(str(r)) == r

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            RenyiExpansion.parse("3 1")


class TestParryCheck:
    def test_quadratic_running_example(self):
        ok, shift = parry_check(RenyiExpansion((3,), (1,)))
        assert ok and shift is None

    def test_equal_shift_fails(self):
        # 222... shifted equals itself, not strictly smaller
        ok, shift = parry_check(RenyiExpansion((2,), (2,)))
        assert not ok and shift == 2

    def test_larger_shift_fails(self):
        # 2 1 (3): shift j=3 gives 333... which beats 213...
        ok, shift = parry_check(RenyiExpansion((2, 1), (3,)))
        assert not ok and shift == 3

    @pytest.mark.parametrize("digits,shift", [("(1)", 2), ("(2 1)", 3), ("(3 1)", 3)])
    def test_purely_periodic_fails_at_one_period(self, digits, shift):
        # shift p + 1 gives the sequence itself, not strictly smaller
        ok, at = parry_check(RenyiExpansion.parse(digits))
        assert not ok and at == shift

    @pytest.mark.parametrize("a", range(2, 21))
    def test_quadratic_family_is_admissible(self, a):
        for b in range(1, a):
            ok, _ = parry_check(renyi_of_quadratic(QuadraticParams(a, b)))
            assert ok


class TestQuadraticParams:
    def test_constraint(self):
        with pytest.raises(InvalidParamsError):
            QuadraticParams(3, 3)
        with pytest.raises(InvalidParamsError):
            QuadraticParams(2, 0)

    def test_sturmian_flag(self):
        assert QuadraticParams(2, 1).is_sturmian
        assert not QuadraticParams(3, 1).is_sturmian

    def test_beta_values(self):
        with workdps(64):
            b31 = beta_of(QuadraticParams(3, 1))
            assert abs(b31.value - (2 + mpf(2) ** mpf("0.5"))) < mpf("1e-60")
            b21 = beta_of(QuadraticParams(2, 1))
            assert abs(b21.value - (3 + mpf(5) ** mpf("0.5")) / 2) < mpf("1e-60")
            b32 = beta_of(QuadraticParams(3, 2))
            assert abs(b32.value - (2 + mpf(3) ** mpf("0.5"))) < mpf("1e-60")

    def test_exact_triple_consistent(self):
        p = QuadraticParams(5, 2)
        u, v, d, w = exact_beta(p)
        with workdps(64):
            val = (u + v * mpf(d) ** mpf("0.5")) / w
            assert abs(val ** 2 - (p.a + 1) * val + (p.a - p.b)) < mpf("1e-58")

    def test_renyi_of_quadratic(self):
        assert renyi_of_quadratic(QuadraticParams(3, 1)) == RenyiExpansion((3,), (1,))
        assert renyi_of_quadratic(QuadraticParams(5, 2)) == RenyiExpansion((5,), (2,))


class TestUnitySum:
    @pytest.mark.parametrize("a,b", [(3, 1), (4, 2), (5, 3), (6, 1)])
    def test_renyi_evaluates_to_one(self, a, b):
        params = QuadraticParams(a, b)
        beta = beta_of(params, 64)
        assert unity_defect(renyi_of_quadratic(params), beta) < mpf("1e-32")

    def test_general_expansion(self):
        renyi = RenyiExpansion((2, 1), (1,))
        beta = beta_of_renyi(renyi, 64)
        assert unity_defect(renyi, beta) < mpf("1e-32")

    @pytest.mark.parametrize("t1", [3, 5])
    def test_simple_expansion_is_an_integer(self, t1):
        # m = p = 1 with t2 = 0 lies outside the quadratic family a-1 >= b >= 1
        beta = beta_of_renyi(RenyiExpansion((t1,), (0,)), 20)
        assert beta.value == t1 and beta.precision == 20

    def test_quadratic_shortcut_is_unchanged(self):
        assert beta_of_renyi(RenyiExpansion((3,), (1,)), 20) == \
            beta_of(QuadraticParams(3, 1), 20)


class TestBetaExpand:
    def setup_method(self):
        self.params = QuadraticParams(3, 1)
        self.beta = beta_of(self.params, 64)

    def test_one_is_single_digit(self):
        k, digits = beta_expand(1, self.params, 5)
        assert k == 0 and digits == (1, 0, 0, 0, 0)

    def test_beta_plus_one(self):
        with workdps(64):
            x = self.beta.value + 1
        k, digits = mpf_beta_expand(x, self.beta, 2)
        assert (k, digits) == (1, (1, 1))

    def test_three_reconstructs(self):
        k, digits = beta_expand(3, self.params, 40)
        assert digits[0] == 3
        with workdps(64):
            assert abs(beta_reconstruct(k, digits, self.beta) - 3) < mpf("1e-18")

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            beta_expand(-1, self.params, 3)

    def test_digits_below_ceiling(self):
        import random

        rng = random.Random(11)
        with workdps(64):
            for _ in range(25):
                x = mpf(rng.random()) * self.beta.value
                k, digits = beta_expand(Fraction(x.man) * Fraction(2) ** x.exp,
                                        self.params, 50)
                assert all(0 <= d <= 3 for d in digits)
                assert abs(beta_reconstruct(k, digits, self.beta) - x) < mpf("1e-20")


# integers, terminating decimals, repeating fractions, small and large x
EXPAND_X = ["0", "1", "3", "7.25", "0.5", "1/3", "2/7", "0.1", "1e-3", "10",
            "99.99", "100", "3.14159", "1000", "1e6", "123456.789"]
# b = a-1 included: there a - b = 1 and the denominators of y stay small
GRID_A8 = [(a, b) for a in range(2, 9) for b in range(1, a)]


@pytest.mark.parametrize("a,b", GRID_A8)
def test_exact_expansion_equals_the_mpf_reference(a, b):
    params = QuadraticParams(a, b)
    beta = beta_of(params, 64)
    for x in EXPAND_X:
        for digit_count in (16, 40):
            assert beta_expand(x, params, digit_count) == \
                mpf_beta_expand(x, beta, digit_count), (x, digit_count)


def test_floor_of_a_negative_root_term_rounds_down():
    # at (2, 1), x = 10^17 has a digit whose fixed-point bracket holds an
    # integer, with c1 < 0 and the value just below it: the integer root
    # decides it, and floor(e sqrt(D)) for e < 0 is -isqrt(e^2 D) - 1
    params = QuadraticParams(2, 1)
    assert beta_expand("1e17", params, 60) == \
        mpf_beta_expand("1e17", beta_of(params, 64), 60)


@pytest.mark.parametrize("a,b", [(3, 1), (8, 1), (8, 6)])
def test_decimal_exponent_decides_as_the_reference(a, b):
    # 10^e on both sides of the exponents decided without building x:
    # k >= digit_count raises, and the digits agree otherwise
    params = QuadraticParams(a, b)
    beta = beta_of(params, 64)
    for digit_count in (1, 4, 16):
        for e in range(-3 * digit_count, 3 * digit_count + 1):
            x = f"1e{e}"
            k, digits = mpf_beta_expand(x, beta, digit_count)
            if k >= digit_count:
                with pytest.raises(DigitCountError):
                    beta_expand(x, params, digit_count)
            else:
                assert beta_expand(x, params, digit_count) == (k, digits), x


class TestGapDistances:
    def test_quadratic_31(self):
        params = QuadraticParams(3, 1)
        beta = beta_of(params, 64)
        gd = gap_distances(renyi_of_quadratic(params), beta)
        assert len(gd) == 2
        with workdps(64):
            assert abs(gd.values[0] - 1) < mpf("1e-60")
            # Delta_1 = b/(beta-1) = sqrt(2) - 1
            assert abs(gd.values[1] - (mpf(2) ** mpf("0.5") - 1)) < mpf("1e-60")

    @pytest.mark.parametrize("a", range(2, 9))
    def test_delta_one_below_delta_zero(self, a):
        for b in range(1, a):
            params = QuadraticParams(a, b)
            beta = beta_of(params, 64)
            gd = gap_distances(renyi_of_quadratic(params), beta)
            assert 0 < gd.values[1] < gd.values[0] == 1

    def test_bounds_for_longer_expansion(self):
        renyi = RenyiExpansion((2, 1), (1,))
        beta = beta_of_renyi(renyi, 64)
        gd = gap_distances(renyi, beta)
        assert len(gd) == 3
        assert all(0 < v <= 1 for v in gd.values)


class TestBetaIntegers:
    def test_first_five_for_31(self):
        params = QuadraticParams(3, 1)
        beta = beta_of(params, 64)
        values, letters = beta_integers(renyi_of_quadratic(params), beta, 5)
        with workdps(64):
            for value, expected in zip(values, (0, 1, 2, 3, beta.value)):
                assert abs(value - expected) < mpf("1e-30")
        assert letters == "0001"

    def test_first_gap_is_one(self):
        for a, b in [(3, 1), (4, 2), (5, 3)]:
            params = QuadraticParams(a, b)
            beta = beta_of(params, 64)
            values, letters = beta_integers(renyi_of_quadratic(params), beta, 3)
            assert letters[0] == "0"
            with workdps(64):
                assert abs(values[1] - values[0] - 1) < mpf("1e-30")

    @pytest.mark.parametrize("a,b", [(3, 1), (4, 2), (5, 1), (6, 4)])
    def test_gap_letters_match_fixed_point(self, a, b):
        params = QuadraticParams(a, b)
        beta = beta_of(params, 64)
        _, letters = beta_integers(renyi_of_quadratic(params), beta, 1000)
        assert letters == fixed_point_prefix(quadratic_substitution(params), 999)

    def test_count_too_small(self):
        params = QuadraticParams(3, 1)
        with pytest.raises(InvalidInputError):
            beta_integers(renyi_of_quadratic(params), beta_of(params, 64), 1)

    def test_beta_of_other_digits_rejected(self):
        renyi = renyi_of_quadratic(QuadraticParams(3, 1))
        with pytest.raises(InvalidInputError):
            beta_integers(renyi, beta_of(QuadraticParams(4, 2), 64), 5)

    @pytest.mark.parametrize("digits", BENCHMARK_DIGITS)
    def test_letters_do_not_depend_on_the_precision(self, digits):
        renyi = RenyiExpansion.parse(digits)
        _, exact = beta_integers(renyi, beta_of_renyi(renyi, 64), 3000)
        for precision in (2, 5, 16):
            beta = beta_of_renyi(renyi, precision)
            assert beta_integers(renyi, beta, 3000)[1] == exact, precision

    @pytest.mark.parametrize("renyi", [
        r for r in CONSTRUCTIBLE if r.m <= 2 and r.p <= 3 and not r.is_minimal
        and not r.is_simple and parry_check(r)[0]], ids=str)
    def test_gap_letters_rename_the_given_spelling(self, renyi):
        # the minimal spelling's fixed point is the given one's, each letter k
        # renamed to the first Delta_j equal to Delta_k
        names = {ord(letter(k)): name
                 for k, name in enumerate(mpf_reference._gap_names(renyi))}
        word = fixed_point_prefix(parry_substitution(renyi), 499)
        assert beta_integer_decimals(renyi, 12, 500)[1] == word.translate(names)

    def test_a_gap_that_is_no_delta_k_raises(self, monkeypatch):
        real = mpf_reference._exact_gaps

        def without_delta_one(renyi):
            relation, names = real(renyi)
            return relation, {k: v for k, v in names.items() if v != "1"}

        monkeypatch.setattr(mpf_reference, "_exact_gaps", without_delta_one)
        params = QuadraticParams(3, 1)
        beta_integers(renyi_of_quadratic(params), beta_of(params, 64), 4)
        with pytest.raises(VerificationError):
            beta_integers(renyi_of_quadratic(params), beta_of(params, 64), 5)


def brute_force_integers(renyi, beta, max_length):
    """0 and the values of every admissible string of at most `max_length`
    digits, sorted, with the number of strings of each length.

    Each digit string is kept iff its leading digit is nonzero and every
    suffix is at most t_1..t_s: the zeros padding an equal suffix fall below
    the tail of a non-simple d_beta(1).
    """
    ref = renyi.digits(max_length)
    strings = [
        s for length in range(1, max_length + 1)
        for s in product(range(renyi.digit(1) + 1), repeat=length)
        if s[0] and all(s[i:] <= ref[: length - i] for i in range(length))
    ]
    with workdps(beta.precision):
        values = [mpf(0)]
        for s in strings:
            acc = mpf(0)
            for d in s:
                acc = acc * beta.value + d
            values.append(acc)
        values.sort()
    return values, [sum(len(s) == n for s in strings)
                    for n in range(1, max_length + 1)]


def assert_stream_matches_brute_force(renyi, max_length, counts):
    beta = beta_of_renyi(renyi, 64)
    expected, per_length = brute_force_integers(renyi, beta, max_length)
    # the gaps spell the fixed point (Fabre); a non-minimal expansion repeats
    # a Delta_k, and the classifier names the first of equal distances
    deltas = gap_distances(renyi, beta).values
    first = [next(j for j, d in enumerate(deltas) if abs(d - dk) < mpf("1e-30"))
             for dk in deltas]
    letters = "".join(str(first[int(c)]) for c in fixed_point_prefix(
        parry_substitution(renyi), len(expected) - 1))
    for count in counts(per_length):
        values, gaps = beta_integers(renyi, beta, count)
        assert values == expected[:count], count
        assert gaps == letters[: count - 1], count
        assert beta_integer_decimals(renyi, 12, count)[1] == letters[: count - 1], count


# "4 1 1 (2 1)" is non-minimal with Delta_2 = Delta_4: rounding must not
# split its gaps between the letters 2 and 4
STREAM_DIGITS = BENCHMARK_DIGITS + ["4 1 1 (2 1)"] + [
    f"{a} ({b})" for a in range(3, 7) for b in range(1, a - 1)]


class TestBetaIntegerStream:
    @pytest.mark.parametrize("digits", STREAM_DIGITS)
    def test_equals_sorted_brute_force(self, digits):
        renyi = RenyiExpansion.parse(digits)
        max_length = {2: 7, 3: 6, 4: 5}.get(renyi.digit(1), 4)
        assert_stream_matches_brute_force(
            renyi, max_length, lambda per_length: [1 + sum(per_length)])

    @pytest.mark.parametrize("digits", STREAM_DIGITS)
    def test_counts_on_and_past_level_boundaries(self, digits):
        # 1 + t_1 ends the one-digit level exactly; one more starts the next
        def counts(per_length):
            ends = list(accumulate(per_length, initial=1))[1:]
            return [2] + [c for end in ends for c in (end, end + 1)][:-1]

        assert_stream_matches_brute_force(RenyiExpansion.parse(digits), 4, counts)


@st.composite
def parry_expansions(draw):
    preperiod = draw(st.lists(st.integers(0, 3), max_size=1))
    period = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    renyi = RenyiExpansion((draw(st.integers(2, 3)), *preperiod), tuple(period))
    assume(not renyi.is_simple and parry_check(renyi)[0])
    return renyi


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(parry_expansions())
def test_random_parry_expansions_stream_in_order(renyi):
    assert_stream_matches_brute_force(
        renyi, 6, lambda per_length: [1 + sum(per_length), 2 + per_length[0]])
