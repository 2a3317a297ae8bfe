"""The benchmark's tower outputs, byte for byte: every (a, b, task) of its
towers job on the CLI's default grid has the digest recorded in
`perfbench/expected_towers.json`.  A change to the closed-form C and P
tables, the U/V towers or the palindromic branches fails here, not first
as failed operations of the benchmark.  Reads those files only, and takes
under a second.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tower_digest_is_the_recorded_one(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from towers_job import run_op
    from workloads import GRID, TOWER_TASKS, load_expected_towers

    got = {f"{a},{b},{task}": run_op(a, b, task)["digest"]
           for a, b in GRID for task in TOWER_TASKS}
    assert got == load_expected_towers()
