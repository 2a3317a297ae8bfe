"""The towers job: closed-form tables and tower recurrences on the grid.

Usage:
    python3 perfbench/towers_job.py '[[3, 1, "c_table"], [4, 2, "branches"], ...]'
    python3 perfbench/towers_job.py --record   # rewrite expected_towers.json

Runs each (a, b, task) operation in the order given and prints one JSON
object {"results": [{"a", "b", "task", "out"}, ...]}.  Each `out` holds a
digest of the task's output and, for the two tables, the Delta C and P
columns the checker needs for the P/Delta C identity.  `betawords` must be
importable (PYTHONPATH=src from the repository root).
"""

from __future__ import annotations

import json
import sys

import betawords
from workloads import (BRANCH_BUDGET, EXPECTED_TOWERS, GRID, TOWER_DEPTH,
                       TOWER_TASKS, TOWERS_N, digest)


def _join(values) -> str:
    return ",".join(map(str, values))


def run_op(a: int, b: int, task: str) -> dict:
    params = betawords.QuadraticParams(a, b)
    if task == "c_table":
        rows = betawords.factor_complexity(params, TOWERS_N, "closed_form").rows
        delta_c = "".join(str(r["deltaC"]) for r in rows)
        return {"digest": digest(_join(r["n"] for r in rows),
                                 _join(r["C"] for r in rows), delta_c,
                                 _join(sorted({r["source"] for r in rows}))),
                "deltaC": delta_c}
    if task == "p_table":
        rows = betawords.palindromic_complexity(
            params, TOWERS_N, "closed_form").rows
        p = "".join(str(r["P"]) for r in rows)
        return {"digest": digest(_join(r["n"] for r in rows), p,
                                 _join(r["maximal_count"] for r in rows),
                                 _join(r["two_ext_count"] for r in rows),
                                 _join(sorted({r["source"] for r in rows}))),
                "P": p}
    if task == "uv_tower":
        tower = betawords.uv_tower(params, TOWER_DEPTH)
        return {"digest": digest(json.dumps(tower.lengths_json(), sort_keys=True),
                                 *tower.u_words, *tower.v_words)}
    if task == "branches":
        specs = betawords.infinite_branches(params, BRANCH_BUDGET)
        parts = []
        for s in specs:
            parts += [s.center, _join(s.generator), str(s.verified),
                      *s.central_factors]
        return {"digest": digest(*parts),
                "verified": [s.verified for s in specs]}
    raise ValueError(f"unknown task {task!r}")


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        expected = {f"{a},{b},{task}": run_op(a, b, task)["digest"]
                    for a, b in GRID for task in TOWER_TASKS}
        EXPECTED_TOWERS.write_text(json.dumps(expected, indent=1,
                                              sort_keys=True) + "\n")
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    results = [{"a": a, "b": b, "task": task, "out": run_op(a, b, task)}
               for a, b, task in json.loads(argv[0])]
    sys.stdout.write(json.dumps({"results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
