"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
The grid used throughout is a in 3..6, b in 1..a-2 (ten parameter points).
"""

import random
import time

import pytest
from factor_reference import factors
from lemma_reference import t_map, t_map_palindrome_check
from mpf_reference import beta_integers, beta_of, unity_defect
from mpmath import mpf

from betawords import (
    FactorLanguage,
    QuadraticParams,
    RenyiExpansion,
    factor_complexity,
    fixed_point_prefix,
    palindromic_complexity,
    parry_substitution,
    quadratic_substitution,
    renyi_of_quadratic,
    uv_tower,
    verify_identities,
)

GRID = [(a, b) for a in range(3, 7) for b in range(1, a - 1)]


def report(number, label, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def test_criterion_1_tower_words():
    def body():
        start = time.monotonic()
        params = QuadraticParams(3, 1)
        tower = uv_tower(params, 4)
        assert tower.v_words[:2] == ["0", "0100010"]
        assert tower.u_words[:2] == ["00", "01000100010"]
        assert t_map("0", params) == "0100010"
        assert time.monotonic() - start < 1.0

    report(1, "U/V tower words for (a, b) = (3, 1)", body)


def test_criterion_2_factor_complexity_grid():
    def body():
        start = time.monotonic()
        for a, b in GRID:
            params = QuadraticParams(a, b)
            oracle = FactorLanguage(quadratic_substitution(params))
            closed = factor_complexity(params, 120, "closed_form")
            assert oracle.complexities(120)[1:] == closed.column("C"), (a, b)
        assert time.monotonic() - start < 60.0

    report(2, "C(n) oracle equals closed form on the grid, n <= 120", body)


def test_criterion_3_palindromic_complexity_grid():
    def body():
        for a, b in GRID:
            params = QuadraticParams(a, b)
            oracle = FactorLanguage(quadratic_substitution(params))
            closed = palindromic_complexity(params, 120, "closed_form")
            assert oracle.palindrome_counts(120) == closed.column("P"), (a, b)
        spot = palindromic_complexity(QuadraticParams(3, 1), 12, "closed_form")
        p = spot.column("P")
        assert p[0] == 1 and p[1] == 2 and p[2] == 1 and p[3] == 3
        assert p[9] == p[11] == 4
        assert all(p[n] == 0 for n in range(4, 13, 2))

    report(3, "P(n) oracle equals closed form on the grid, n <= 120", body)


def test_criterion_4_identity_suite():
    def body():
        for a, b in GRID:
            params = QuadraticParams(a, b)
            lang = FactorLanguage(quadratic_substitution(params))
            c = lang.complexities(123)
            p = lang.palindrome_counts(122)
            verify_identities(params, c, p)  # raises on a violation

    report(4, "P/C identities hold on the grid, n <= 120", body)


def test_criterion_5_extension_trichotomy():
    def body():
        for a, b in GRID:
            params = QuadraticParams(a, b)
            lang = FactorLanguage(quadratic_substitution(params))
            tower = uv_tower(params, 10)
            depth = min(len(tower.u_words), len(tower.v_words))
            u_words = set(tower.u_words[:depth])
            v_words = set(tower.v_words[:depth])
            checked = 0
            for n in range(1, 61):
                if checked >= 200:
                    break
                for word, extensions in lang.palindrome_extensions(n).items():
                    found = (a, b, word, extensions)
                    if word in u_words:
                        assert extensions == frozenset(), found
                    elif word in v_words:
                        assert extensions == frozenset({"0", "1"}), found
                    else:
                        assert len(extensions) == 1, found
                    checked += 1
            assert checked >= 50, (a, b, checked)

    report(5, "palindrome extension trichotomy, up to 200 palindromes per "
              "point", body)


def test_criterion_6_sturmian_boundary():
    def body():
        params = QuadraticParams(2, 1)
        assert params.is_sturmian
        lang = FactorLanguage(quadratic_substitution(params))
        c = lang.complexities(60)[1:]
        assert c == [n + 1 for n in range(1, 61)]
        assert factor_complexity(params, 60, "closed_form").column("C") == c
        p = lang.palindrome_counts(60)
        assert all(p[n] == 1 for n in range(0, 61, 2))
        assert all(p[n] == 2 for n in range(1, 61, 2))
        assert palindromic_complexity(params, 60, "closed_form").column("P") == p

    report(6, "Sturmian boundary (2, 1): C(n) = n+1, P alternates 1/2, "
              "oracle and closed forms alike", body)


def test_criterion_7_reversal_closure():
    def body():
        for a, b in [(3, 1), (4, 2), (5, 1)]:
            lang = FactorLanguage(quadratic_substitution(QuadraticParams(a, b)))
            probe = lang.reversal_closure_probe(50)
            assert probe == {"closed_up_to": 50, "witness": None}, (a, b)
        renyi = RenyiExpansion((2, 1), (1,))
        sub = parry_substitution(renyi)
        lang = FactorLanguage(sub)
        probe = lang.reversal_closure_probe(30)
        assert probe["witness"] == "102"
        counts = [sum(1 for w in factors(lang, n) if w == w[::-1])
                  for n in range(61)]
        assert max(n for n, c in enumerate(counts) if c > 0) < 60

    report(7, "reversal closure binary yes, digits 2 1 (1) witness 102", body)


def test_criterion_8_beta_integers():
    def body():
        for a, b in [(3, 1), (5, 2)]:
            params = QuadraticParams(a, b)
            renyi = renyi_of_quadratic(params)
            beta = beta_of(params, 64)
            assert unity_defect(renyi, beta) < mpf("1e-30"), (a, b)
            start = time.monotonic()
            _, letters = beta_integers(renyi, beta, 10 ** 4 + 1)
            assert letters == fixed_point_prefix(
                quadratic_substitution(params), 10 ** 4
            ), (a, b)
            assert time.monotonic() - start < 30.0

    report(8, "unity sum to 1e-30 and 10^4 beta-integer gaps match u_beta",
           body)


def test_criterion_9_t_map_and_interleaving():
    def body():
        for a, b in GRID:
            params = QuadraticParams(a, b)
            lang = FactorLanguage(quadratic_substitution(params))
            rng = random.Random(1000 * a + b)
            for _ in range(500):
                n = rng.randint(1, 14)
                w = rng.choice(sorted(factors(lang, n)))
                rep = t_map_palindrome_check(w, params, lang)
                assert rep["is_pal_p"] == rep["is_pal_Tp"], (a, b, w)
                if rep["is_pal_p"]:
                    assert rep["ext_p"] == rep["ext_Tp"], (a, b, w)
            tower = uv_tower(params, 201)
            u = [sum(counts) for counts in tower.u_counts]
            v = [sum(counts) for counts in tower.v_counts]
            for n in range(200):
                assert v[n] < u[n] < v[n + 1], (a, b, n + 1)

    report(9, "T preserves palindromic extensions; exact tower interleaving",
           body)
