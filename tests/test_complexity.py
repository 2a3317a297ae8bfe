import random
import re
import sys

import pytest
from factor_reference import contains, factors, is_left_special
from lemma_reference import t_map

from betawords import (
    FactorLanguage,
    InvalidInputError,
    QuadraticParams,
    UnsupportedVariantError,
    closed_form_delta_c,
    factor_complexity,
    fixed_point_prefix,
    quadratic_substitution,
    uv_tower,
)

P31 = QuadraticParams(3, 1)


@pytest.fixture(scope="module")
def lang31():
    return FactorLanguage(quadratic_substitution(P31))


class TestTMap:
    def test_figure_words(self):
        assert t_map("0", P31) == "0100010"
        assert t_map("00", P31) == "01000100010"

    def test_empty_word(self):
        for a, b in [(3, 1), (5, 2)]:
            params = QuadraticParams(a, b)
            assert t_map("", params) == "0" * b + "1" + "0" * b

    def test_length_formula(self):
        params = QuadraticParams(5, 2)
        rng = random.Random(3)
        for _ in range(30):
            w = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
            z, o = w.count("0"), w.count("1")
            assert len(t_map(w, params)) == 2 * 2 + 1 + (5 + 1) * z + (2 + 1) * o

    def test_membership_equivalence(self, lang31):
        # w is a factor iff T(w) is a factor
        rng = random.Random(17)
        words = sorted(factors(lang31, 8))
        sample = rng.sample(words, min(10, len(words)))
        for w in sample:
            assert contains(lang31, t_map(w, P31))
        non_factor = "11"
        assert not contains(lang31, non_factor)
        assert not contains(lang31, t_map(non_factor, P31))


class TestUVTower:
    def test_figure_one_words(self):
        tower = uv_tower(P31, 4)
        assert tower.v_words[:2] == ["0", "0100010"]
        assert tower.u_words[:2] == ["00", "01000100010"]

    def test_figure_one_lengths(self):
        tower = uv_tower(P31, 3)
        # |V^(3)| = 2b+1 + (a+1)*zeros(V^(2)) + (b+1)*ones(V^(2))
        #         = 3 + 4*5 + 2*2 = 27, matching the materialized T(V^(2))
        assert [sum(counts) for counts in tower.v_counts] == [1, 7, 27]
        assert [sum(counts) for counts in tower.u_counts[:2]] == [2, 11]

    def test_length_recurrence_matches_materialized(self):
        tower = uv_tower(P31, 6)
        for words, counts in ((tower.u_words, tower.u_counts),
                              (tower.v_words, tower.v_counts)):
            assert words
            for word, (zeros, ones) in zip(words, counts):
                assert (word.count("0"), word.count("1")) == (zeros, ones)

    @pytest.mark.parametrize("a,b", [(3, 1), (5, 2), (6, 3)])
    def test_length_interleaving(self, a, b):
        tower = uv_tower(QuadraticParams(a, b), 41)
        u = [sum(counts) for counts in tower.u_counts]
        v = [sum(counts) for counts in tower.v_counts]
        for n in range(40):
            assert v[n] < u[n] < v[n + 1]

    def test_prefix_chain(self):
        tower = uv_tower(P31, 5)
        for n in range(1, len(tower.u_words)):
            assert tower.v_words[n].startswith(tower.v_words[n - 1])
            assert tower.u_words[n].startswith(tower.v_words[n])

    def test_sturmian_rejected(self):
        with pytest.raises(UnsupportedVariantError):
            uv_tower(QuadraticParams(2, 1), 3)

    def test_materialize_cap(self):
        tower = uv_tower(P31, 20, materialize_cap=100)
        assert all(len(w) <= 100 for w in tower.u_words)
        assert sum(tower.u_counts[19]) > 100  # lengths continue past the cap

    def test_tower_words_are_factors(self, lang31):
        tower = uv_tower(P31, 5)
        for word in tower.u_words + tower.v_words:
            assert contains(lang31, word)

    def test_depth_zero_is_empty(self):
        tower = uv_tower(P31, 0)
        assert tower.u_words == tower.v_words == []
        assert tower.u_counts == tower.v_counts == []
        assert tower.lengths_json()["u_lengths"] == []

    def test_negative_depth_rejected(self):
        with pytest.raises(InvalidInputError):
            uv_tower(P31, -1)

    def test_lengths_json_uses_decimal_strings(self):
        payload = uv_tower(P31, 10).lengths_json()
        assert payload["schema"] == 1
        assert all(re.fullmatch(r"\d+", s) for s in payload["u_lengths"])

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no limit on int-to-str conversion")
    def test_depth_past_the_digit_limit_is_invalid_input(self):
        # |U^(20000)| of (3, 1) has over 10^4 decimal digits; the tower
        # stops counting at the first length past the limit
        with pytest.raises(InvalidInputError, match="decimal digits"):
            uv_tower(P31, 20000)


class TestSpecialFactors:
    def test_delta_c_counts_left_specials(self, lang31):
        assert lang31.left_special_factors(1) == {"0"}
        assert lang31.left_special_factors(2) == {"00", "01"}

    def test_left_specials_start_with_0b1(self, lang31):
        for n in range(2, 20):
            for w in lang31.left_special_factors(n):
                if "1" in w:
                    assert w.startswith("01")  # 0^b 1 with b = 1

    def test_u_maximality(self, lang31):
        tower = uv_tower(P31, 4)
        for n in (1, 2, 3):
            u = tower.u_words[n - 1]
            assert is_left_special(lang31, u)
            for z in "01":
                extended = u + z
                if contains(lang31, extended):
                    assert not is_left_special(lang31, extended)

    def test_v_total_bispecial(self, lang31):
        tower = uv_tower(P31, 4)
        for n in (1, 2, 3):
            v = tower.v_words[n - 1]
            assert is_left_special(lang31, v + "0")
            assert is_left_special(lang31, v + "1")


class TestFactorComplexity:
    def test_running_example_table_31(self, lang31):
        c = lang31.complexities(13)
        assert c[1:13] == [2, 3, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18]
        assert [c[n + 1] - c[n] for n in range(1, 13)] == \
            [1, 2, 1, 1, 1, 1, 1, 2, 2, 2, 2, 1]

    def test_closed_form_agrees(self, lang31):
        oracle = lang31.complexities(60)
        closed = factor_complexity(P31, 60, "closed_form")
        assert oracle[1:] == closed.column("C")

    def test_sturmian_oracle(self):
        lang = FactorLanguage(quadratic_substitution(QuadraticParams(2, 1)))
        assert lang.complexities(60)[1:] == [n + 1 for n in range(1, 61)]

    def test_sturmian_closed_form_rejected(self):
        # the closed forms used to refuse b = a-1; now the cancelling marks
        # give the Sturmian C(n) = n+1 and Delta C(n) = 1 there
        table = factor_complexity(QuadraticParams(2, 1), 10, "closed_form")
        assert table.column("C") == [n + 1 for n in range(1, 11)]
        assert closed_form_delta_c(QuadraticParams(2, 1), 10) == [1] * 10

    def test_delta_in_one_two(self):
        for a, b in [(4, 1), (4, 2), (6, 3)]:
            table = factor_complexity(QuadraticParams(a, b), 80, "closed_form")
            assert set(r["deltaC"] for r in table.rows) <= {1, 2}

    def test_block_structure(self):
        # maximal 0-blocks inside the word have length a or b
        for a, b in [(3, 1), (5, 2)]:
            prefix = fixed_point_prefix(
                quadratic_substitution(QuadraticParams(a, b)), 2000
            )
            blocks = [len(m) for m in re.findall("0+", prefix.strip("0"))]
            assert set(blocks[:-1]) <= {a, b}

    def test_csv_export(self):
        table = factor_complexity(P31, 3, "closed_form")
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "n,C,deltaC,source"
        assert lines[1] == "1,2,1,closed_form"

    def test_json_export(self):
        payload = factor_complexity(P31, 3, "closed_form").to_json()
        assert payload["schema"] == 1
        assert payload["rows"][0]["source"] == "closed_form"
