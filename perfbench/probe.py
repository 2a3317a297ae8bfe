"""A fixed pure-Python probe of the host's speed.

On a shared host, neighbours can slow every process by 20-45% for minutes
at a time.  Within such a stretch nothing runs at the idle host's speed, so
even the floor times of run.py (each stretch of a job at its fastest) rise
with it.  The probe's two kernels do what the package's hot loops do (slice
a long word into a set of factors; join long slices into a longer string)
but never call the package, so their floor over a run rises and falls with
the host, not with the code under test.  Of seven candidate kernels timed
between jobs of both workloads over twelve minutes, these two tracked the
jobs' floor times best: in windows of twenty jobs, dividing by their floor
cut the spread (quartile distance over median) of the floor times from 0.13
to 0.055 on verify-grid and from 0.17 to 0.063 on towers-beta.
`Probe.scale()` turns a floor time of the run into seconds at the speed
this host has when idle.
"""

from __future__ import annotations

import math
import random
import time

WORD = "".join(random.Random(0).choices("abc", k=200_000))
ROUNDS = 10
# Sum of the kernels' floors on a shared 2-vCPU x86-64 host ("Intel(R)
# Xeon(R) Processor", Python 3.11.7) over twelve minutes of runs: the speed
# that scaled times are given at.  Between runs of one benchmark version
# only the ratio of the two floors matters.
REFERENCE_S = 0.000896


def _factor_set() -> int:
    """A set of factors of a long word, as FactorLanguage._scan builds."""
    return len({WORD[i:i + 40] for i in range(0, len(WORD), 40)})


def _joins() -> int:
    """Long slices joined into a longer string, as Substitution.apply
    builds its images."""
    return len("".join(WORD[i * 1000:] for i in range(6)))


KERNELS = (_factor_set, _joins)


class Probe:
    """The fastest time of each kernel over every round run so far."""

    def __init__(self) -> None:
        self.best = [math.inf] * len(KERNELS)

    def run(self) -> None:
        """ROUNDS rounds of every kernel."""
        clock = time.perf_counter
        for _ in range(ROUNDS):
            for i, kernel in enumerate(KERNELS):
                start = clock()
                kernel()
                self.best[i] = min(self.best[i], clock() - start)

    def floor_s(self) -> float:
        return sum(self.best)

    def scale(self, seconds: float) -> float:
        """`seconds`, a floor time taken while the probe ran, at the idle
        host's speed."""
        return seconds * REFERENCE_S / self.floor_s()
