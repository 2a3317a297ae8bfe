"""The one T-orbit builder (`t_orbit`) and the one table type (`Table`).

Every tower word, of the U/V towers and of the palindromic branches, comes
from `t_orbit`; every per-length table, of the library and of `analyze`,
is a `Table`.
"""

import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest
from lemma_reference import t_map

from betawords import (
    InvalidInputError,
    QuadraticParams,
    Table,
    UVTower,
    complexity,
    factor_complexity,
    infinite_branches,
    t_orbit,
    uv_tower,
)

P31 = QuadraticParams(3, 1)
# the children import the package these tests import, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(complexity.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def built(monkeypatch) -> list[int]:
    """The lengths of the T-images the package builds, in order."""
    lengths = []
    real = complexity._t_image

    def counted(*words):
        image = real(*words)
        lengths.append(len(image))
        return image

    monkeypatch.setattr(complexity, "_t_image", counted)
    return lengths


class TestTOrbit:
    @pytest.mark.parametrize("a,b", [(3, 1), (4, 2), (5, 2), (7, 4)])
    def test_equals_iterated_t_map_up_to_the_cap(self, a, b):
        params = QuadraticParams(a, b)
        for first in ("", "0", "1", "0" * b, "0" * (a - 1), "010"):
            for cap in [*range(0, 80), 1000, 5000]:
                expected, w = [], first
                while len(w) <= cap:
                    expected.append(w)
                    w = t_map(w, params)
                assert list(t_orbit(first, params, cap)) == expected

    @pytest.mark.parametrize("a", range(3, 13))
    def test_equals_iterated_t_map_at_the_benchmark_depth_and_cap(self, a):
        # the towers job builds U/V to depth 200 under a cap of 10^6 letters
        for b in range(1, a - 1):
            params = QuadraticParams(a, b)
            for first in ("0" * b, "0" * (a - 1)):
                expected, w = [], first
                while len(w) <= 10 ** 6 and len(expected) < 200:
                    expected.append(w)
                    w = t_map(w, params)
                assert list(islice(t_orbit(first, params, 10 ** 6), 200)) \
                    == expected

    def test_rejects_a_letter_outside_the_alphabet(self):
        with pytest.raises(InvalidInputError):
            next(t_orbit("012", P31, 100))

    @pytest.mark.parametrize("cap", [0, 1, 6, 7, 8, 30, 31, 1000, 10 ** 5])
    def test_no_word_over_the_cap_is_built(self, built, cap):
        words = list(t_orbit("0", P31, cap))
        assert all(n <= cap for n in built)
        assert built == [len(w) for w in words[1:]]

    def test_builds_each_image_when_asked_for(self, built):
        orbit = t_orbit("0", P31, 10 ** 6)
        assert next(orbit) == "0" and built == []
        assert next(orbit) == "0100010" and built == [7]


class TestUVTowerWords:
    @pytest.mark.parametrize("a,b", [(3, 1), (7, 3)])
    def test_words_are_the_orbit_within_every_cap(self, a, b):
        # caps below |V^(1)| = b and |U^(1)| = a-1 keep no word either
        params = QuadraticParams(a, b)
        for cap in [*range(0, 12), 64, 300]:
            tower = uv_tower(params, 5, materialize_cap=cap)
            for words, first in ((tower.u_words, a - 1), (tower.v_words, b)):
                orbit = t_orbit("0" * first, params, cap)
                assert words == list(islice(orbit, 5))
            assert all(len(w) <= cap for w in tower.u_words + tower.v_words)
            assert sum(tower.u_counts[4]) > 300
        assert uv_tower(params, 5, materialize_cap=a - 2).u_words == []

    def test_words_within_the_cap_and_the_depth(self, built):
        tower = uv_tower(P31, 6, materialize_cap=300)
        assert tower.u_words == list(t_orbit("00", P31, 300))[:6]
        assert tower.v_words == list(t_orbit("0", P31, 300))[:6]
        assert all(n <= 300 for n in built)

    def test_computed_fields_are_not_init_parameters(self):
        with pytest.raises(TypeError):
            UVTower(P31, 3, u_words=["x"])


class TestBranchTowers:
    @pytest.mark.parametrize("a,b", [(3, 1), (4, 2), (5, 2), (4, 1)])
    @pytest.mark.parametrize("budget", [0, 2, 3000])
    def test_each_tower_built_once_within_budget(self, built, a, b, budget):
        params = QuadraticParams(a, b)
        towers = [list(t_orbit("0" * b, params, budget))]
        if (a % 2, b % 2) == (1, 0):  # the one case with a W branch
            towers.append(list(t_orbit("0", params, budget)))
        built.clear()
        infinite_branches(params, budget)
        assert all(n <= budget for n in built)
        assert sorted(built) == sorted(len(w) for t in towers for w in t[1:])


class TestTable:
    def test_column(self):
        table = factor_complexity(P31, 12, "closed_form")
        c = [2, 3, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18]
        assert table.column("n") == list(range(1, 13))
        assert table.column("C") == c
        assert table.column("deltaC")[:11] == [y - x for x, y in zip(c, c[1:])]
        with pytest.raises(KeyError):
            table.column("P")

    def test_csv_lines_end_with_lf(self):
        table = Table(("n", "agree"), [{"n": 1, "agree": ""},
                                       {"n": 2, "agree": "yes"}])
        assert table.to_csv() == "n,agree\n1,\n2,yes\n"

    @pytest.mark.parametrize("a,b", [(3, 1), (4, 3)])
    def test_analyze_csv_is_the_table_of_its_json_rows(self, a, b):
        def analyze(fmt):
            return subprocess.run(
                [sys.executable, "-m", "betawords.cli", "analyze", "--a", str(a),
                 "--b", str(b), "--n-max", "15", "--format", fmt],
                capture_output=True, text=True, check=True, env=CHILD_ENV).stdout

        rows = json.loads(analyze("json"))["rows"]
        fields = ("n", "C", "deltaC", "P", "agree")
        assert analyze("csv") == Table(fields, rows).to_csv()
