"""Spans around the betawords layers, recorded from outside the package.

`Tracer.install()` wraps the public functions and public classes' methods
of each package module, plus the few private helpers the per-layer metrics
name, without touching the package source.  Class methods are patched on the class.  Module-level
functions are patched in every loaded `betawords` namespace that holds
them, so `cli.verify_identities` and `palindromes.tower_intervals` both go
through the wrapper.  Click command callbacks become `cli.<command>` spans.

Each span is (name id, parent span id, start, end) and stays in memory until
`dump()` writes them out.  `layer_metrics()` reads dumps back and computes
self time as a span's duration minus the time its child spans cover.

`Marker` wraps the same calls but keeps only the wall and CPU clocks at
their boundaries (and at garbage collections), for the timed runs.
"""

from __future__ import annotations

import array
import functools
import gc
import importlib
import inspect
import json
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("substitution", "language", "palindromes", "complexity",
          "beta_numeration", "cli")

# Per-letter and per-factor predicates: a wrapper costs as much as the call
# (Substitution.apply calls letter_index once per letter), so their time
# stays in the caller's self time.
SKIP = {
    "substitution.letter", "substitution.letter_index",
    "palindromes.is_palindrome",
    "beta_numeration.RenyiExpansion.digit",
    "beta_numeration.RenyiExpansion.digits",
}
# Private callables the per-layer metrics need.
PRIVATE = {
    "language.FactorLanguage.__init__", "language.FactorLanguage._scan",
    "beta_numeration._admissible_strings",
}
# Called about 10^5 times per grid point by closed_form_p: counted, not
# spanned, so its time stays in closed_form_p's self time.
COUNT_ONLY = {"palindromes._clause_matches": "palindromes.clause_match_calls"}

CONTAINS = "language.FactorLanguage.contains"


# Counters read off a call's arguments and result at its span boundary.  A
# hook gets (counters, parent span name, args, result, spanned children?);
# every hooked call passes these arguments positionally in the package.

def _apply_letters(counters, parent, args, result, nested):
    counters["substitution.apply_letters"] += len(result)


def _prefix_under_contains(counters, parent, args, result, nested):
    if parent == CONTAINS:
        counters["language.contains_letters"] += len(result)


def _scan_letters(counters, parent, args, result, nested):
    counters["language.scan_letters"] += args[2]


def _factors_miss(counters, parent, args, result, nested):
    # a cache hit returns without calling anything that is spanned
    if nested:
        counters["language.factors_misses"] += 1
        counters["language.factor_set_letters"] += len(result) * args[1]


def _t_map_letters(counters, parent, args, result, nested):
    counters["complexity.t_map_letters"] += len(result)


def _admissible(counters, parent, args, result, nested):
    counters["beta_numeration.admissible_generated"] += len(result)


def _beta_count(counters, parent, args, result, nested):
    counters["beta_numeration.requested"] += args[2]


HOOKS = {
    "substitution.Substitution.apply": _apply_letters,
    "substitution.FixedPointStream.prefix": _prefix_under_contains,
    "language.FactorLanguage._scan": _scan_letters,
    "language.FactorLanguage.factors": _factors_miss,
    "complexity.t_map": _t_map_letters,
    "beta_numeration._admissible_strings": _admissible,
    "beta_numeration.beta_integers": _beta_count,
}


class Tracer:
    """In-memory span recorder.  Single-threaded, like the package."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, str]] = [(-1, "")]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        name_id, hook, clock = self._name_id(name), HOOKS.get(name), time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = len(spans)
            parent_id, parent_name = stack[-1]
            spans.append(None)
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name_id, parent_id, start, end)
            if hook is not None:
                hook(counters, parent_name, args, result, len(spans) > sid + 1)
            return result

        return spanned

    def count_only(self, counter: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap every layer.  Call once, before the job imports anything
        from the package by name."""
        importlib.import_module("betawords.cli")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "betawords" or n.startswith("betawords.")]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"betawords.{layer}"]
            for attr, obj in list(vars(module).items()):
                key = f"{layer}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self._wrap_callable(key, attr, obj)
                    if wrapped is not None:
                        replaced[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn):
                            wrapped = self._wrap_callable(
                                f"{key}.{meth}", meth, fn)
                            if wrapped is not None:
                                setattr(obj, meth, wrapped)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(namespace, attr, hit[1])
        cli = sys.modules["betawords.cli"]
        for cmd_name, command in cli.main.commands.items():
            command.callback = self.wrap(f"cli.{cmd_name}", command.callback)

    def _wrap_callable(self, key: str, attr: str, fn):
        if key in COUNT_ONLY:
            return self.count_only(COUNT_ONLY[key], fn)
        if key in SKIP or (attr.startswith("_") and key not in PRIVATE):
            return None
        return self.wrap(key, fn)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": dict(self.counters), **extra}, fh)


class Marker(Tracer):
    """Stamps only: the wall and CPU clocks at each entry to and exit from
    the calls a Tracer spans and at each garbage collection, with no names,
    stack or counters.

    The package is deterministic, so every run of one command stamps at the
    same points of its work, and the stretches between stamps can be
    compared run by run; see run.floor_times.
    """

    def __init__(self):
        super().__init__()
        self.stamps = array.array("d")

    def wrap(self, name: str, fn):
        extend, wall, cpu = self.stamps.extend, time.perf_counter, \
            time.process_time

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            extend((wall(), cpu()))
            try:
                return fn(*args, **kwargs)
            finally:
                extend((wall(), cpu()))

        return marked

    def count_only(self, counter: str, fn):
        return None

    def install(self) -> None:
        """Wrap every layer, and stamp at the start and end of each garbage
        collection too: the package allocates alike in every run, so its
        collections fall at the same points of its work, and they split the
        long stretches inside a call (mpmath loops, big string builds)."""
        extend, wall, cpu = self.stamps.extend, time.perf_counter, \
            time.process_time
        gc.callbacks.append(lambda phase, info: extend((wall(), cpu())))
        super().install()

    def dump(self, path: str, **extra) -> None:
        """The process's peak RSS in MB, then the stamps."""
        with open(path, "wb") as fh:
            array.array("d", [peak_rss_mb()]).tofile(fh)
            self.stamps.tofile(fh)


def peak_rss_mb() -> float:
    """This process's own peak RSS.  Unlike ru_maxrss, VmHWM leaves out the
    parent's memory that a child shares between fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def read_stamps(path) -> tuple[float, array.array, array.array]:
    """The peak RSS (MB) and the wall and CPU clock columns of a Marker
    dump."""
    stamps = array.array("d")
    with open(path, "rb") as fh:
        stamps.frombytes(fh.read())
    return stamps[0], stamps[1::2], stamps[2::2]


# ---------------------------------------------------------------------------
# Reading dumps back
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (_, _, start, end) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out.append((end - start) - _union_length(iv for iv in inside
                                                 if iv[0] < iv[1]))
    return out


# metric -> span names whose self time it sums
SELF_METRICS = {
    "substitution.apply_self_s": ["substitution.Substitution.apply"],
    "substitution.prefix_self_s": ["substitution.FixedPointStream.prefix"],
    "language.scan_self_s": ["language.FactorLanguage._scan"],
    "language.contains_self_s": [CONTAINS],
    "palindromes.of_length_self_s": ["palindromes.palindromes_of_length"],
    "palindromes.verify_identities_self_s": ["palindromes.verify_identities"],
    "palindromes.table_self_s": ["palindromes.palindromic_complexity"],
    "palindromes.closed_form_p_self_s": ["palindromes.closed_form_p"],
    "palindromes.branches_self_s": ["palindromes.infinite_branches"],
    "complexity.table_self_s": ["complexity.factor_complexity"],
    "complexity.delta_c_self_s": ["complexity.closed_form_delta_c"],
    "complexity.uv_tower_self_s": ["complexity.uv_tower"],
    "beta_numeration.beta_of_self_s": ["beta_numeration.beta_of",
                                       "beta_numeration.beta_of_renyi"],
    "beta_numeration.gap_distances_self_s": ["beta_numeration.gap_distances"],
    "beta_numeration.admissible_self_s": ["beta_numeration._admissible_strings"],
    "beta_numeration.classify_self_s": [
        "beta_numeration.GapDistances.classify"],
    "beta_numeration.beta_integers_self_s": ["beta_numeration.beta_integers"],
}
# metric -> span name whose calls it counts
CALL_METRICS = {
    "substitution.apply_calls": "substitution.Substitution.apply",
    "substitution.prefix_calls": "substitution.FixedPointStream.prefix",
    "language.instances": "language.FactorLanguage.__init__",
    "language.factors_calls": "language.FactorLanguage.factors",
    "language.scans": "language.FactorLanguage._scan",
    "language.contains_calls": CONTAINS,
    "palindromes.of_length_calls": "palindromes.palindromes_of_length",
    "palindromes.closed_form_p_calls": "palindromes.closed_form_p",
    "complexity.tower_intervals_calls": "complexity.tower_intervals",
    "complexity.t_map_calls": "complexity.t_map",
    "beta_numeration.classify_calls": "beta_numeration.GapDistances.classify",
}
COUNTER_METRICS = (
    "substitution.apply_letters", "language.scan_letters",
    "language.factor_set_letters", "language.contains_letters",
    "palindromes.clause_match_calls", "complexity.t_map_letters",
    "beta_numeration.admissible_generated",
)


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced children of one job."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(int)
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        for key, value in dump["counters"].items():
            counters[key] += value
        for (name_id, _, _, _), own in zip(spans, self_times(spans)):
            self_s[names[name_id]] += own
            calls[names[name_id]] += 1
    metrics = {m: sum(self_s[n] for n in span_names)
               for m, span_names in SELF_METRICS.items()}
    metrics.update({m: calls[n] for m, n in CALL_METRICS.items()})
    metrics.update({m: counters[m] for m in COUNTER_METRICS})
    factors_calls = metrics["language.factors_calls"]
    misses = counters["language.factors_misses"]
    metrics["language.factors_hit_ratio"] = \
        (factors_calls - misses) / factors_calls if factors_calls else 0.0
    metrics["language.scans_per_miss"] = \
        metrics["language.scans"] / misses if misses else 0.0
    generated = counters["beta_numeration.admissible_generated"]
    metrics["beta_numeration.admissible_kept_ratio"] = \
        counters["beta_numeration.requested"] / generated if generated else 0.0
    # the cli layer's own time: `run` (argument parsing) and the commands
    metrics["cli.command_self_s"] = sum(
        (v for n, v in self_s.items() if n.startswith("cli.")), 0.0)
    return metrics


def importtime_rows(text: str) -> list[tuple[str, int, int]]:
    """(module, self us, cumulative us) for each line of `python -X
    importtime` output, in the order the modules finished importing."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        cells = [c.strip() for c in line[len("import time:"):].split("|")]
        if len(cells) == 3 and cells[0].isdigit() and cells[1].isdigit():
            rows.append((cells[2], int(cells[0]), int(cells[1])))
    return rows


def import_times(stderr_texts: list[str]) -> dict[str, float]:
    """`<layer>.import_s`: median cumulative import time of each package
    module, read from `python -X importtime` output."""
    per_layer = defaultdict(list)
    for text in stderr_texts:
        for module, _, cumulative in importtime_rows(text):
            if module.startswith("betawords."):
                per_layer[module[len("betawords."):]].append(cumulative)
    # imported here, not at the top, to keep it out of the marked children
    import statistics
    return {f"{layer}.import_s": statistics.median(per_layer[layer]) / 1e6
            if per_layer[layer] else 0.0 for layer in LAYERS}
