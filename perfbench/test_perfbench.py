"""Tests of the benchmark itself: every checker rejects corrupted output,
self time is duration minus child coverage, tracing is repeatable, and the
floor times sum each stretch at its fastest.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import probe
import run
import tracer
import workloads
from workloads import (BETA_COUNT, GRID, TOWER_TASKS, VERIFY_CHECKS,
                       VERIFY_N_MAX,
                       check_beta_integers, check_towers, check_towers_beta,
                       check_verify_grid)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from betawords import (QuadraticParams, factor_complexity,  # noqa: E402
                       palindromic_complexity)

ENV = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


def _dump(obj) -> bytes:
    return json.dumps(obj).encode()


# ---------------------------------------------------------------------------
# verify-grid
# ---------------------------------------------------------------------------

def _verify_payload():
    points = [{"a": a, "b": b, "checks": {c: True for c in VERIFY_CHECKS}}
              for a, b in GRID]
    return {"schema": 1, "n_max": VERIFY_N_MAX, "points": points,
            "passed": len(GRID), "failed": 0}


VERIFY_INPUTS = {"grid": GRID}


def test_verify_grid_accepts_good_output():
    assert check_verify_grid([(0, _dump(_verify_payload()))], VERIFY_INPUTS) == 0


@pytest.mark.parametrize("corrupt, failed", [
    (lambda p: p["points"][3]["checks"].update(identities=False), 1),
    (lambda p: p["points"][0]["checks"].pop("identities"), 1),
    (lambda p: p["points"].pop(), 1),
    (lambda p: p.update(points=[], passed=0), len(GRID)),
    (lambda p: p.update(failed=1), 1),
    (lambda p: p.update(n_max=60), len(GRID)),
])
def test_verify_grid_rejects_corrupted_output(corrupt, failed):
    payload = _verify_payload()
    corrupt(payload)
    assert check_verify_grid([(0, _dump(payload))], VERIFY_INPUTS) == failed


def test_verify_grid_rejects_exit_code_and_garbage():
    good = _dump(_verify_payload())
    assert check_verify_grid([(1, good)], VERIFY_INPUTS) == len(GRID)
    assert check_verify_grid([(0, good[:-5])], VERIFY_INPUTS) == len(GRID)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def _closed_form_series(a, b, n_max):
    """Delta C(1..n_max) and P(0..n_max) of the package, one digit each."""
    params = QuadraticParams(a, b)
    delta_c = "".join(str(r["deltaC"]) for r in
                      factor_complexity(params, n_max, "closed_form").rows)
    p = "".join(str(r["P"]) for r in
                palindromic_complexity(params, n_max, "closed_form").rows)
    return delta_c, p


def _towers_case():
    """Results for one grid point with made-up digests and real tables."""
    delta_c, p = _closed_form_series(3, 1, 60)
    ops = [[3, 1, task] for task in TOWER_TASKS]
    outs = {"c_table": {"digest": "c", "deltaC": delta_c},
            "p_table": {"digest": "p", "P": p},
            "uv_tower": {"digest": "u"},
            "branches": {"digest": "b", "verified": [True]}}
    expected = {f"3,1,{t}": outs[t]["digest"] for t in TOWER_TASKS}
    payload = {"results": [{"a": 3, "b": 1, "task": t, "out": outs[t]}
                           for t in TOWER_TASKS]}
    return {"ops": ops}, payload, expected


def test_towers_accepts_good_output():
    inputs, payload, expected = _towers_case()
    assert check_towers([(0, _dump(payload))], inputs, expected) == 0


def _flip(series: str, i: int) -> str:
    """Change one digit, keeping it a digit."""
    return series[:i] + str((int(series[i]) + 1) % 10) + series[i + 1:]


@pytest.mark.parametrize("corrupt, failed", [
    (lambda r: r[1]["out"].update(P=_flip(r[1]["out"]["P"], 7)), 2),
    (lambda r: r[0]["out"].update(deltaC=_flip(r[0]["out"]["deltaC"], 4)), 2),
    (lambda r: r[1]["out"].update(P=r[1]["out"]["P"][:-1]), 2),
    (lambda r: r[2]["out"].update(digest="x"), 1),
    (lambda r: r[3]["out"].update(verified=[True, False]), 1),
    (lambda r: r.pop(2), 1),
])
def test_towers_rejects_corrupted_output(corrupt, failed):
    inputs, payload, expected = _towers_case()
    corrupt(payload["results"])
    assert check_towers([(0, _dump(payload))], inputs, expected) == failed


def test_towers_rejects_exit_code():
    inputs, payload, expected = _towers_case()
    assert check_towers([(2, _dump(payload))], inputs, expected) == 4


def test_expected_towers_cover_every_operation():
    expected = workloads.load_expected_towers()
    assert set(expected) == {f"{a},{b},{t}" for a, b in GRID
                             for t in TOWER_TASKS}


def test_identity_on_real_tables():
    for a, b in GRID:
        dc, p = _closed_form_series(a, b, 300)
        assert workloads.identity_holds(dc, p)
        assert not workloads.identity_holds(dc, _flip(p, 150))


# ---------------------------------------------------------------------------
# beta-integers
# ---------------------------------------------------------------------------

WORD = ("0001" * BETA_COUNT)[: BETA_COUNT - 1]


def _beta_payload():
    return {"schema": 1, "digits": "3 (1)", "count": BETA_COUNT,
            "values": ["0.0"] + [f"{i}.5" for i in range(BETA_COUNT - 1)],
            "gap_letters": WORD}


BETA_INPUTS = {"digits": ["3 (1)"]}


def test_beta_integers_accepts_good_output():
    out = [(0, _dump(_beta_payload()))]
    assert check_beta_integers(out, BETA_INPUTS, {"3 (1)": WORD}) == 0


@pytest.mark.parametrize("corrupt", [
    lambda p: p.update(gap_letters="1" + p["gap_letters"][1:]),
    lambda p: p.update(gap_letters=p["gap_letters"][:-1]),
    lambda p: p["values"].reverse(),
    lambda p: p["values"].pop(),
    lambda p: p.update(count=10),
    lambda p: p["values"].__setitem__(5, "nan"),
])
def test_beta_integers_rejects_corrupted_output(corrupt):
    payload = _beta_payload()
    corrupt(payload)
    out = [(0, _dump(payload))]
    assert check_beta_integers(out, BETA_INPUTS, {"3 (1)": WORD}) == 1


def test_beta_integers_rejects_exit_code_and_missing_reference():
    good = _dump(_beta_payload())
    assert check_beta_integers([(3, good)], BETA_INPUTS, {"3 (1)": WORD}) == 1
    assert check_beta_integers([(0, good)], BETA_INPUTS, {"3 (1)": None}) == 1


def test_towers_beta_counts_each_part(monkeypatch):
    inputs, towers, expected = _towers_case()
    monkeypatch.setattr(workloads, "load_expected_towers", lambda: expected)
    inputs["digits"] = ["3 (1)", "4 (2)"]
    words = {"3 (1)": WORD, "4 (2)": WORD}
    good = [(0, _dump(towers)), (0, _dump(_beta_payload())),
            (0, _dump(_beta_payload()))]
    assert check_towers_beta(good, inputs, words) == 0
    bad_beta = _beta_payload()
    bad_beta["values"].reverse()
    assert check_towers_beta(good[:2] + [(0, _dump(bad_beta))],
                             inputs, words) == 1
    assert check_towers_beta([(1, b"")] + good[1:], inputs, words) == 4
    assert check_towers_beta(good[:2], inputs, words) == 1


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_self_time_subtracts_child_coverage():
    spans = [
        (0, -1, 0.0, 10.0),   # root: children cover [1, 4] and [5, 9]
        (1, 0, 1.0, 4.0),     # child with a grandchild covering [2, 3]
        (2, 1, 2.0, 3.0),
        (1, 0, 5.0, 9.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_import_times_parse_cumulative_column():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        900 |   betawords.language\n"
            "import time:       300 |       4000 | betawords.cli\n")
    got = tracer.import_times([text])
    assert got["language.import_s"] == pytest.approx(0.0009)
    assert got["cli.import_s"] == pytest.approx(0.004)
    assert got["substitution.import_s"] == 0.0


def _traced_verify(tmp_path, name):
    spans_file = tmp_path / name
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_child.py"), str(spans_file), "cli",
         "verify", "--a-max", "4", "--n-max", "20", "--format", "json"],
        capture_output=True, env=ENV, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_file.read_text())


def test_traced_counts_repeat_and_reach_imported_names(tmp_path):
    first = tracer.layer_metrics([_traced_verify(tmp_path, "a.json")])
    second = tracer.layer_metrics([_traced_verify(tmp_path, "b.json")])
    counts = [m for m in first if not m.endswith("_s")]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    # three grid points, three FactorLanguages each
    assert first["language.instances"] == 9
    # cli's own binding of verify_identities is wrapped too
    assert first["palindromes.verify_identities_self_s"] > 0
    assert first["language.scans_per_miss"] == 2.0
    assert first["cli.command_self_s"] > 0


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "towers-beta",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""



# ---------------------------------------------------------------------------
# Floor timing
# ---------------------------------------------------------------------------

def _marked_job(*children):
    """A JobRun whose children have the given wall-clock stamp columns."""
    job = run.JobRun()
    for walls in children:
        job.children.append(run.Child(
            walls[-1] - walls[0], walls[-1] - walls[0], 1.0, 0, b"", "",
            run.array("d", walls), run.array("d", [w - walls[0] for w in walls])))
    return job


def test_floor_times_sum_the_fastest_stretch_of_each_repetition():
    # two children; stretches 1+3 / 1 in one repetition, 2+1 / 4 in the other
    fast_first = _marked_job([0.0, 1.0, 4.0], [10.0, 11.0])
    fast_last = _marked_job([0.0, 2.0, 3.0], [10.0, 14.0])
    job_s, cpu_s, aligned = run.floor_times([fast_first, fast_last])
    assert aligned == [True, True]
    assert job_s == pytest.approx(1.0 + 1.0 + 1.0)
    assert cpu_s == pytest.approx(3.0)


def test_floor_times_fall_back_to_the_whole_child_when_its_stamps_differ():
    short = _marked_job([0.0, 1.0, 4.0], [10.0, 11.0])
    extra = _marked_job([0.0, 1.0, 1.5, 3.5], [10.0, 12.0])
    job_s, _, aligned = run.floor_times([short, extra])
    assert aligned == [False, True]
    assert job_s == pytest.approx(3.5 + 1.0)


def test_marked_child_stamps_every_repetition_alike(tmp_path):
    run.OUT.mkdir(exist_ok=True)
    lengths = set()
    for name in ("a.bin", "b.bin"):
        stamps_file = tmp_path / name
        child = run.run_child(
            run.child_argv("cli", ["verify", "--a-max", "3", "--n-max", "10",
                                   "--format", "json"], stamps_file,
                           stamps=True), stamps_file)
        assert child.code == 0, child.stderr
        assert json.loads(child.stdout)["passed"] == 1
        walls, cpus = child.walls, child.cpus
        assert len(walls) == len(cpus) > 2
        assert list(walls) == sorted(walls)
        assert 0 < child.rss_mb < 200
        lengths.add(len(walls))
    assert len(lengths) == 1


def _import_start(wall_s, *selfs_us):
    stderr = "import time: self [us] | cumulative | imported package\n" + "".join(
        f"import time: {own:>9} | {own:>10} | mod{i}\n"
        for i, own in enumerate(selfs_us))
    return run.Child(wall_s, wall_s, 1.0, 0, b"", stderr)


def test_setup_floor_sums_each_import_at_its_fastest():
    # imports 100+300 us then 200+100 us; the rest 0.0096 s then 0.0097 s
    slow_first = _import_start(0.01, 100, 300)
    slow_last = _import_start(0.01, 200, 100)
    setup_s, aligned = run.setup_floor([slow_first, slow_last])
    assert aligned
    assert setup_s == pytest.approx(0.0001 + 0.0001 + 0.0096)


def test_setup_floor_falls_back_to_the_fastest_start():
    setup_s, aligned = run.setup_floor([_import_start(0.02, 100),
                                        _import_start(0.01, 100, 50)])
    assert not aligned
    assert setup_s == 0.01


def test_probe_scales_by_the_reference_over_its_floor():
    p = probe.Probe()
    p.run()
    assert 0 < p.floor_s() < 1
    assert p.scale(2.0) == pytest.approx(
        2.0 * probe.REFERENCE_S / p.floor_s())
