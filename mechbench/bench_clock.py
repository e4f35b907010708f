"""Times scaled to a reference machine speed.

On a shared 2-vCPU machine the speed of one core changes by up to a
factor of two within a second and stays changed for seconds to minutes,
as other tenants load the host (no steal time shows, so the core runs,
only slower). Raw wall times of identical work then differ by 40% or
more between runs, far beyond any useful regression bound.

Each timed call is therefore bracketed by a fixed calibration kernel
that does not use mechcert, and its time is multiplied by
reference / (mean kernel time before and after). The result reads as the
call's time on this machine at the reference speed. The calibration and
the timed call run on one pinned CPU, and children inherit the pinning,
so both see the same core.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from time import perf_counter

import numpy as np


def kernel_s() -> float:
    """Time of 400 Thompson-like rounds of small numpy calls (about 5 to 11 ms)."""
    rng = np.random.Generator(np.random.Philox(20261017))
    a, b = np.ones(8), np.ones(8)
    start = perf_counter()
    for _ in range(400):
        arm = int(np.argmax(rng.beta(a, b)))
        if rng.random() < 0.5:
            a[arm] += 1.0
        else:
            b[arm] += 1.0
    return perf_counter() - start


def kernel_median_s() -> float:
    return statistics.median(kernel_s() for _ in range(3))


class Scaler:
    """Runs calls between two calibrations and keeps each call's speed factor."""

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.factors: list[float] = []

    def call(self, fn):
        """(fn(), factor): multiply a time measured inside fn by factor."""
        before = kernel_median_s()
        result = fn()
        after = kernel_median_s()
        factor = self.reference_s / (0.5 * (before + after))
        self.factors.append(factor)
        return result, factor


@contextlib.contextmanager
def pinned():
    """Run this process, and children started meanwhile, on one CPU."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)
