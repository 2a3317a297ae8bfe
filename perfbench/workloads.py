"""Workload inputs, the child commands that run them, and their output checks.

Each workload turns a seed into the arguments of one job, the job runs in
fresh child processes, and a checker decides from the raw output alone which
of the job's operations succeeded.  The checkers recompute what they can
(the P/Delta C identity, the gap-coding theorem, digests recorded from the
first release of the package) instead of trusting the package's own verdicts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_TOWERS = HERE / "expected_towers.json"

# The CLI's default grid: a in 3..6, b in 1..a-2.
GRID = tuple((a, b) for a in range(3, 7) for b in range(1, a - 1))
VERIFY_N_MAX = 40
VERIFY_CHECKS = ("factor_complexity", "palindromic_complexity", "identities")

TOWERS_N = 5000
TOWER_DEPTH = 200
BRANCH_BUDGET = 5000
TOWER_TASKS = ("c_table", "p_table", "uv_tower", "branches")

BETA_COUNT = 3000
# Minimal non-simple expansions, two quadratic and two not.  Their costs
# differ by up to 2x, and alternates could not be cost-matched more closely
# than run-to-run timing noise, so the seed only orders this fixed set and
# every seed's job does the same work.  Non-minimal expansions such as
# "2 1 (1)" are left out: their gap letters do not follow the canonical
# substitution, so the gap-coding check would reject them.
BETA_POOL = ("3 (1)", "4 (2)", "3 1 (2)", "3 (2 1)")


@dataclass
class Job:
    """One job: its child processes, as (target, args) with target "cli"
    (the betawords CLI) or "towers" (towers_job.py), the number of
    operations it attempts, and the inputs the checker needs."""

    workload: str
    commands: list[tuple[str, list[str]]]
    ops: int
    inputs: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def make_job(workload: str, seed: int) -> Job:
    """The job a seed selects.  The package sees only these arguments.

    Only the order of the beta-integers calls depends on the seed: every
    seed's job does the same work, so that run-to-run spread measures the
    machine and the code, not the draw.
    """
    if workload == "verify-grid":
        # The CLI fixes its own grid, so the seed changes nothing here.
        args = ["verify", "--a-max", "6", "--n-max", str(VERIFY_N_MAX),
                "--format", "json"]
        return Job(workload, [("cli", args)], len(GRID), {"grid": GRID},
                   {"grid_points": len(GRID), "n_max": VERIFY_N_MAX})
    if workload == "towers-beta":
        # The towers part runs in a fixed order: peak RSS depends on which
        # operations' memory coexists, and shuffling moved it by up to 15%.
        ops = [[a, b, task] for a, b in GRID for task in TOWER_TASKS]
        digits = list(BETA_POOL)
        random.Random(seed).shuffle(digits)
        commands = [("towers", [json.dumps(ops)])] + [
            ("cli", ["beta-integers", "--digits", d, "--count",
                     str(BETA_COUNT), "--format", "json"]) for d in digits]
        return Job(workload, commands, len(ops) + len(digits),
                   {"ops": ops, "digits": digits},
                   {"grid_points": len(GRID), "tasks": list(TOWER_TASKS),
                    "N": TOWERS_N, "tower_depth": TOWER_DEPTH,
                    "branch_budget": BRANCH_BUDGET,
                    "expansions": digits, "count": BETA_COUNT})
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Checkers: each takes the raw (exit code, stdout) of every child of a job
# and returns the number of failed operations.
# ---------------------------------------------------------------------------

def load_json(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_verify_grid(outputs, inputs) -> int:
    (code, stdout), = outputs
    payload = load_json(stdout)
    grid = list(inputs["grid"])
    if code != 0 or not isinstance(payload, dict) \
            or payload.get("n_max") != VERIFY_N_MAX:
        return len(grid)
    good = set()
    for point in payload.get("points", []):
        checks = point.get("checks", {})
        if sorted(checks) == sorted(VERIFY_CHECKS) \
                and all(v is True for v in checks.values()):
            good.add((point.get("a"), point.get("b")))
    failed = sum(1 for p in grid if p not in good)
    if payload.get("passed") != len(grid) or payload.get("failed") != 0:
        failed = max(failed, 1)
    return failed


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def load_expected_towers() -> dict:
    return json.loads(EXPECTED_TOWERS.read_text())


def identity_holds(delta_c: str, p: str) -> bool:
    """P(n+1) + P(n) = Delta C(n) + 2 for 1 <= n < N.

    `delta_c` holds Delta C(1..N) and `p` holds P(0..N), one digit each.
    """
    n_max = len(delta_c)
    if len(p) != n_max + 1 or n_max < 2:
        return False
    return all(int(p[n + 1]) + int(p[n]) == int(delta_c[n - 1]) + 2
               for n in range(1, n_max))


def check_towers_beta(outputs, inputs, words) -> int:
    """The towers child comes first, then one child per expansion."""
    return check_towers(outputs[:1], inputs) \
        + check_beta_integers(outputs[1:], inputs, words)


def check_towers(outputs, inputs, expected=None) -> int:
    (code, stdout), = outputs
    ops = [tuple(op) for op in inputs["ops"]]
    payload = load_json(stdout)
    if code != 0 or not isinstance(payload, dict) \
            or not isinstance(payload.get("results"), list):
        return len(ops)
    expected = load_expected_towers() if expected is None else expected
    got = {}
    for r in payload["results"]:
        got[(r.get("a"), r.get("b"), r.get("task"))] = r.get("out", {})
    bad = set()
    for a, b, task in ops:
        out = got.get((a, b, task))
        if out is None or out.get("digest") != expected.get(f"{a},{b},{task}"):
            bad.add((a, b, task))
        elif task == "branches" and not all(out.get("verified", [])):
            bad.add((a, b, task))
    for a, b in {(a, b) for a, b, _ in ops}:
        c_out = got.get((a, b, "c_table"), {})
        p_out = got.get((a, b, "p_table"), {})
        if not identity_holds(str(c_out.get("deltaC", "")),
                              str(p_out.get("P", ""))):
            bad.update({(a, b, "c_table"), (a, b, "p_table")})
    return len(bad & set(ops))


def check_beta_integers(outputs, inputs, words) -> int:
    """`words` maps each expansion to the fixed-point prefix from `word`."""
    failed = 0
    for (code, stdout), d in zip(outputs, inputs["digits"]):
        payload = load_json(stdout)
        if code != 0 or not isinstance(payload, dict) \
                or not _beta_payload_ok(payload, words[d]):
            failed += 1
    return failed + max(0, len(inputs["digits"]) - len(outputs))


def _beta_payload_ok(payload, word: str) -> bool:
    values = payload.get("values", [])
    if payload.get("count") != BETA_COUNT or len(values) != BETA_COUNT:
        return False
    # Gap-coding theorem: the gaps, coded by which Delta_k they equal, spell
    # the fixed point of the canonical substitution.
    if payload.get("gap_letters") != word or len(word) != BETA_COUNT - 1:
        return False
    try:
        nums = [float(v) for v in values]
    except (TypeError, ValueError):
        return False
    return nums[0] == 0.0 and all(x < y for x, y in zip(nums, nums[1:]))
