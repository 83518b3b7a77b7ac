"""A machine-speed gauge for the wittsen benchmark.

On a shared host the speed of the same Python code drifts by 10-40% over
seconds to minutes, and process CPU time drifts with it, so repeated runs of
unchanged code spread too far for a regression bound. The gauge is a fixed
piece of exact arithmetic kept in the benchmark (independent of ``src/``)
with the same profile as the library: sparse series multiplication over
dictionaries of exponent tuples with integer and ``Fraction`` coefficients,
and ``Fraction`` row reduction. Read between a workload's cases, it measures
how fast the machine is at that moment, and the benchmark scales the time of
the neighbouring cases by ``REFERENCE_S / reading``: seconds as they would be
on a machine where one gauge unit takes ``REFERENCE_S``. A change to the
library moves the scaled time exactly as it moves the raw time.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# Seconds one unit took on the machine the baseline was recorded on
# (2-vCPU x86 VM, CPython 3.11.7).
REFERENCE_S = 0.09
UNITS_PER_READING = 3


def _series_mul(a: dict, b: dict, bound: int) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            if e[0] <= bound:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _row_reduce(rows: list) -> int:
    """Rank of a Fraction matrix by Gaussian elimination."""
    a = [list(r) for r in rows]
    rank = 0
    for col in range(len(a[0])):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        for i in range(rank + 1, len(a)):
            f = a[i][col] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


class Gauge:
    """Fixed inputs, drawn once from a constant seed; ``read`` times them."""

    def __init__(self):
        rng = random.Random(20230330)
        self.f = {(i, j): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
                  for i in range(20) for j in range(3)}
        self.g = {(i, j): rng.randint(-10**12, 10**12) or 1
                  for i in range(20) for j in range(3)}
        self.m = [[Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(18)]
                  for _ in range(18)]
        self.want = self._unit()
        self.readings = []

    def _unit(self):
        h = _series_mul(_series_mul(self.f, self.g, 32), self.g, 32)
        return len(h), sum(h.values()), _row_reduce(self.m)

    def read(self) -> float:
        """Seconds per unit now: the median of a few units, so that one
        interrupted unit does not move it. Also recorded in ``readings``."""
        times = []
        for _ in range(UNITS_PER_READING):
            t0 = time.perf_counter()
            if self._unit() != self.want:
                raise RuntimeError("gauge computation is not deterministic")
            times.append(time.perf_counter() - t0)
        s = statistics.median(times)
        self.readings.append(s)
        return s

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` spent between two readings, in reference seconds."""
        return seconds * REFERENCE_S * 2 / (before + after)
