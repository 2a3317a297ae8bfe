"""One-shot reference timings for the rows of ROADMAP.md's Baseline table.

Usage (from the repository root):
    python3 perfbench/baseline.py          # writes perfbench/BENCH_baseline.json

This is a single reference measurement, outside the repeated workloads of
run.py.  Each row is timed with perf_counter; a row that takes under two
seconds is run five times and its median kept, a longer row is run once.
Library rows run in this process, CLI and test-suite rows in children with
the same environment as the benchmark's.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from run import ROOT, child_env, metadata_common

sys.path.insert(0, str(ROOT / "src"))

from betawords import (QuadraticParams, beta_integers, beta_of,  # noqa: E402
                       closed_form_p, factor_complexity,
                       palindromic_complexity, renyi_of_quadratic,
                       verify_identities)

OUT_FILE = ROOT / "perfbench" / "BENCH_baseline.json"
P31 = QuadraticParams(3, 1)


def _child(*argv):
    def run():
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                              env=child_env(), capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}")
    return run


def _rows():
    """(name, seconds in ROADMAP's table, thunk)."""
    rows = [
        ("tier1_suite", 27.4, _child("-m", "pytest", "-q", "-p",
                                     "no:cacheprovider", "tests")),
        ("cli_verify_grid_n120", 13.7,
         _child("-m", "betawords.cli", "verify", "--n-max", "120")),
        ("cli_verify_grid_n240", 67.7,
         _child("-m", "betawords.cli", "verify", "--n-max", "240")),
    ]
    roadmap = {"c": (0.31, 1.84, 7.73), "p": (0.36, 1.97, 8.09),
               "identities": (0.39, 1.69, 9.47)}
    for i, n in enumerate((120, 240, 480)):
        rows += [
            (f"oracle_c_3_1_n{n}", roadmap["c"][i],
             lambda n=n: factor_complexity(P31, n, "oracle")),
            (f"oracle_p_3_1_n{n}", roadmap["p"][i],
             lambda n=n: palindromic_complexity(P31, n, "oracle")),
            (f"verify_identities_3_1_n{n}", roadmap["identities"][i],
             lambda n=n: verify_identities(P31, n)),
        ]
    rows += [
        ("closed_form_c_and_p_n480", 0.0018, lambda: (
            factor_complexity(P31, 480, "closed_form"),
            palindromic_complexity(P31, 480, "closed_form"))),
        ("closed_form_p_3_1_n100000", 0.29,
         lambda: closed_form_p(P31, 10 ** 5)),
        ("beta_integers_3_1_count1600", 0.05,
         lambda: beta_integers(renyi_of_quadratic(P31), beta_of(P31), 1600)),
    ]
    return rows


def time_row(thunk) -> list[float]:
    samples = []
    while not samples or (len(samples) < 5 and samples[0] < 2.0):
        start = time.perf_counter()
        thunk()
        samples.append(time.perf_counter() - start)
    return samples


def main() -> int:
    results = {}
    for name, roadmap_s, thunk in _rows():
        samples = time_row(thunk)
        results[name] = {"median_s": statistics.median(samples),
                         "samples_s": samples, "roadmap_s": roadmap_s}
        print(f"{name:32} {results[name]['median_s']:9.4f} s "
              f"(ROADMAP {roadmap_s} s, {len(samples)} runs)", flush=True)
    OUT_FILE.write_text(json.dumps(
        {"metadata": metadata_common(), "rows": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
