"""The betawords benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py            # every workload in turn

Workloads (see workloads.py for sizes and pools):
    verify-grid   `betawords verify --a-max 6 --n-max 40 --format json`
    towers-beta   closed-form tables, U/V towers and branches at N = 1e4 on
                  the grid (towers_job.py), then four
                  `betawords beta-integers --count 4000` calls

Each job runs in fresh single-threaded child processes, one at a time, with
PYTHONPATH=src and a fixed glibc mmap threshold, so that large blocks go
back to the system when freed and peak RSS does not hinge on heap-trim
accidents (without it, the towers child peaked at 158 MB in one checkout
directory and 129 MB in another).  Every output is checked (workloads.py)
and a failed check counts the operation as failed.

--trace 0 repeats the job for --seconds (at least MIN_REPEATS times) and
reports the end-to-end metrics.  Each child runs under the Marker
(tracer.py), which stamps the wall and CPU clocks at every entry to and exit
from a package call and at each garbage collection, and does nothing else.
The package is deterministic, so every repetition stamps at the same points
of its work, and the stretches between stamps line up across repetitions.
The floor time of the job adds up, stretch by stretch, the fastest time
any repetition took over it (floor_times).  On a shared host, neighbours
slow a single process by 10 to 90% in bursts that come and go within
seconds; a job of seconds never escapes them, so its whole time drifts with
the host's load, but most short stretches run unhindered in some
repetition.  Load that lasts for minutes still raises the floor, so the
probe (probe.py), run between repetitions, measures the host's floor speed
over the same run, and job_s and cpu_s are the job's floor wall and CPU
times scaled to the speed of the idle host.  setup_s is the same for the
cold `python -X importtime -c "import betawords.cli"` start made before each
repetition, with each module's own import time as a stretch
(setup_floor).  peak_rss_mb is the median over repetitions of the largest
child peak RSS.  The unscaled floors, the probe's floor and the whole
repetitions' times are kept in the run's record.
--trace 1 runs plain and traced (tracer.py) jobs in turn, OVERHEAD_PAIRS of
each, and reports the per-layer metrics of the last traced job, the module
import times from `python -X importtime`, and the tracing overhead (the
fastest traced minus the fastest plain job wall time).

The last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"}; the lines before it list each metric with its unit.
The run's metadata, raw samples and metrics go to perfbench/out/, and the
spans of a traced run to perfbench/out/spans-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from probe import Probe
from tracer import (import_times, importtime_rows, layer_metrics,
                    read_stamps)
from workloads import (BETA_COUNT, check_towers_beta, check_verify_grid,
                       load_json, make_job)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-grid", "towers-beta")
IMPORT_STARTS = 5
OVERHEAD_PAIRS = 3
CHILD_TIMEOUT_S = 150
# Fewest repetitions whose per-stretch minima make a job time: fewer than
# about ten leave the minima measurably above the host's floor.
MIN_REPEATS = 10
IMPORT_CLI = [sys.executable, "-X", "importtime", "-c",
              "import betawords.cli"]


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str
    # clocks at the child's start and end and at each of its Marker stamps
    walls: array = field(default_factory=lambda: array("d"))
    cpus: array = field(default_factory=lambda: array("d"))


@dataclass
class JobRun:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    children: list = field(default_factory=list)
    outputs: list = field(default_factory=list)   # (exit code, stdout)
    dumps: list = field(default_factory=list)     # traced spans, per child
    failed: int = 0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               MALLOC_MMAP_THRESHOLD_="131072", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv: list[str], stamps_file: Path | None = None) -> Child:
    """Run one child to completion, killing it after CHILD_TIMEOUT_S; its
    own rusage comes from wait4.  With `stamps_file`, the child is a
    --stamps traced_child and its call-boundary clocks are read back."""
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                    os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        child = Child(end - start, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, proc.returncode, out.read(),
                      err.read().decode(errors="replace"))
    if stamps_file is not None:
        # wait4's ru_maxrss can be this process's own peak, shared with
        # the child until exec, so the child reports its peak itself
        child.rss_mb, walls, cpus = read_stamps(stamps_file) \
            if stamps_file.exists() else (0.0, array("d"), array("d"))
        stamps_file.unlink(missing_ok=True)
        # time.perf_counter is CLOCK_MONOTONIC, shared with the child
        child.walls = array("d", [start, *walls, end])
        child.cpus = array("d", [0.0, *cpus, child.cpu_s])
    return child


def child_argv(target: str, args: list[str], spans_file: Path | None = None,
               stamps: bool = False):
    if spans_file is not None:
        return [sys.executable, str(HERE / "traced_child.py"),
                *(["--stamps"] if stamps else []), str(spans_file),
                target, *args]
    if target == "cli":
        return [sys.executable, "-m", "betawords.cli", *args]
    return [sys.executable, str(HERE / "towers_job.py"), *args]


def run_job(job, words, spans_prefix: Path | None = None,
            stamps: bool = False) -> JobRun:
    """One job.  With `spans_prefix`, each child is traced (or, with
    `stamps`, marked) into a file named after it."""
    run = JobRun()
    for i, (target, args) in enumerate(job.commands):
        suffix = ".bin" if stamps else ".json"
        spans_file = None if spans_prefix is None \
            else spans_prefix.with_name(f"{spans_prefix.name}-{i}{suffix}")
        argv = child_argv(target, args, spans_file, stamps)
        child = run_child(argv, spans_file if stamps else None)
        run.wall_s += child.wall_s
        run.cpu_s += child.cpu_s
        run.rss_mb = max(run.rss_mb, child.rss_mb)
        run.children.append(child)
        run.outputs.append((child.code, child.stdout))
        if spans_file is not None and not stamps:
            run.dumps.append(json.loads(spans_file.read_text()))
    if job.workload == "verify-grid":
        run.failed = check_verify_grid(run.outputs, job.inputs)
    else:
        run.failed = check_towers_beta(run.outputs, job.inputs, words)
    return run


def _stretch_minima(columns: list[array]) -> float:
    """Sum over stretches of the smallest length any column gives it."""
    diffs = [[b - a for a, b in zip(col, col[1:])] for col in columns]
    return sum(map(min, zip(*diffs)))


def floor_times(jobs: list[JobRun]) -> tuple[float, float, list[bool]]:
    """job_s and cpu_s at the job's fastest, from marked repetitions.

    Every stretch between two neighbouring clock stamps of a child counts
    with the shortest time any repetition took over it; the job time is the
    sum over the job's children and stretches.  A child's stretches line up
    only if it stamped the same number of times in every repetition; if it
    did not, the child counts as one stretch, from its start to its end.
    The third value says, child by child, whether the stretches lined up.
    """
    wall = cpu = 0.0
    aligned = []
    for i in range(len(jobs[0].children)):
        children = [j.children[i] for j in jobs]
        aligned.append(len({len(ch.walls) for ch in children}) == 1)
        if aligned[-1]:
            wall += _stretch_minima([ch.walls for ch in children])
            cpu += _stretch_minima([ch.cpus for ch in children])
        else:
            wall += min(ch.wall_s for ch in children)
            cpu += min(ch.cpu_s for ch in children)
    return wall, cpu, aligned


def setup_floor(starts: list[Child]) -> tuple[float, bool]:
    """setup_s at its fastest, from cold `python -X importtime` starts.

    Each module's own import time is a stretch, and the rest of the start
    (interpreter start-up and exit) is one more; each counts with its
    shortest time in any start, as in floor_times.  If the starts did not
    import the same modules in the same order, the fastest whole start is
    the result.  The second value says whether the stretches lined up.
    """
    rows = [importtime_rows(c.stderr) for c in starts]
    if len({tuple(m for m, _, _ in r) for r in rows}) != 1:
        return min(c.wall_s for c in starts), False
    columns = []
    for child, r in zip(starts, rows):
        ends = list(accumulate(own / 1e6 for _, own, _ in r))
        columns.append([0.0, *ends, child.wall_s])
    return _stretch_minima(columns), True


def reference_words(job) -> dict:
    """Fixed-point prefixes from `betawords word`, for the gap-coding check."""
    words = {}
    for d in job.inputs.get("digits", []):
        child = run_child(child_argv("cli", [
            "word", "--digits", d, "--length", str(BETA_COUNT - 1),
            "--format", "json"]))
        payload = load_json(child.stdout) if child.code == 0 else None
        words[d] = payload.get("word") if isinstance(payload, dict) else None
    return words


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    job = make_job(workload, seed)
    words = reference_words(job)
    run_child(IMPORT_CLI)  # compile the package's bytecode before timing
    if trace == 0:
        stamps = OUT / f"stamps-{workload}-seed{seed}"
        setup: list[Child] = []
        jobs: list[JobRun] = []
        took: list[float] = []
        probe = Probe()
        start = time.perf_counter()
        # Start another round only if it should end within --seconds.  A
        # cold start and the probe go with each job, so that they sample the
        # host's load over the whole run, not over a few seconds of it.
        while len(jobs) < MIN_REPEATS or time.perf_counter() - start + \
                statistics.median(took) <= seconds:
            began = time.perf_counter()
            setup.append(run_child(IMPORT_CLI))
            jobs.append(run_job(job, words, stamps, stamps=True))
            probe.run()
            took.append(time.perf_counter() - began)
        job_s, cpu_s, aligned = floor_times(jobs)
        setup_s, setup_aligned = setup_floor(setup)
        values = {"job_s": probe.scale(job_s), "cpu_s": probe.scale(cpu_s),
                  "peak_rss_mb": statistics.median(j.rss_mb for j in jobs),
                  "setup_s": probe.scale(setup_s)}
        samples = {"floor_job_s": job_s, "floor_cpu_s": cpu_s,
                   "floor_setup_s": setup_s,
                   "probe_floor_s": probe.floor_s(),
                   "probe_kernel_floors_s": probe.best,
                   "stretches_aligned": aligned,
                   "setup_stretches_aligned": setup_aligned,
                   "whole_job_s": [j.wall_s for j in jobs],
                   "whole_cpu_s": [j.cpu_s for j in jobs],
                   "peak_rss_mb": [j.rss_mb for j in jobs],
                   "setup_s": [c.wall_s for c in setup],
                   "setup_exit_codes": sorted({c.code for c in setup})}
        metrics = {name: (values[name], unit)
                   for name, unit in spec_units("end_to_end").items()}
    else:
        # Plain and traced jobs alternate; each side's fastest job gives the
        # overhead, as one pair alone is often within the host's noise.
        plain, traced = [], []
        for _ in range(OVERHEAD_PAIRS):
            plain.append(run_job(job, words))
            traced.append(run_job(job, words,
                                  OUT / f"spans-{workload}-seed{seed}"))
        jobs = plain + traced
        untraced_s = min(j.wall_s for j in plain)
        traced_s = min(j.wall_s for j in traced)
        traced = traced[-1]
        imports = [run_child(IMPORT_CLI) for _ in range(IMPORT_STARTS)]
        values = layer_metrics(traced.dumps)
        values.update(import_times([c.stderr for c in imports]))
        values["cli.output_bytes"] = sum(
            len(out) for (target, _), (_, out)
            in zip(job.commands, traced.outputs) if target == "cli")
        values["trace.overhead_s"] = traced_s - untraced_s
        samples = {"untraced_job_s": untraced_s, "traced_job_s": traced_s}
        metrics = {name: (values[name], unit)
                   for name, unit in spec_units("per_layer").items()}
    # A package that cannot be imported, or a missing reference word, fails
    # the jobs' own checks too, so only job operations are counted.
    attempted = job.ops * len(jobs)
    failed = sum(j.failed for j in jobs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"metadata": metadata(job, seed, seconds, trace),
              "samples": samples, "result": result}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spec_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in the
    order BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def metadata_common() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def metadata(job, seed: int, seconds: int, trace: int) -> dict:
    return {
        **metadata_common(),
        "workload": job.workload,
        "why": next(w["why"] for w in spec()["workloads"]
                    if w["name"] == job.workload),
        "sizes": job.sizes,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "betawords" / "cli.py").is_file():
        print(f"error: no betawords sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, args.trace)
        results[name] = result
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
