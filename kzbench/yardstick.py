"""A yardstick of the machine's speed, measured beside the workload.

The 2-vCPU virtual machine of the README figures shares its cores with
other machines and changes speed by up to 1.5x within tens of seconds;
two runs of the same work one after the other differed by 30 %.  Every
timed operation of kinkzeta slows alike, and so does this fixed piece of
work in pure Python, numpy and scipy, which never touches kinkzeta.  A run
times the yardstick every EVERY_S between its operations and scales each
operation's time to the speed at which the yardstick takes REF_S, using
the samples taken within WINDOW_S of it.  setup_s is scaled by a burst of
samples right after set-up.  kzbench/README.md gives the spreads with and
without the scaling."""

from __future__ import annotations

import math
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np
from scipy.integrate import quad

REF_S = 0.0025        # seconds; about its median on the reference machine
EVERY_S = 0.25        # a sample after the first operation that ends this late
BURST = 15            # samples right after set-up, for setup_s
WINDOW_S = 1.0        # an operation is scaled by the samples this close to it

_MATRIX = np.random.default_rng(0).standard_normal((100, 100))
_MATRIX = _MATRIX + _MATRIX.T


def _integrand(x: float) -> float:
    return math.exp(-x) * math.cos(3.0 * x)


def sample() -> float:
    """Seconds for one pass of the fixed work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    np.linalg.eigvalsh(_MATRIX)
    quad(_integrand, 0.0, 20.0, limit=200)
    return time.perf_counter() - t0


def burst() -> float:
    """Median of BURST samples."""
    return statistics.median(sample() for _ in range(BURST))


def scales(spans, samples) -> list[float]:
    """For each operation's (start, end), REF_S over the median of the
    samples, (time, seconds) in time order, taken within WINDOW_S of it."""
    times = [t for t, _ in samples]
    out = []
    for start, end in spans:
        near = samples[bisect_left(times, start - WINDOW_S):
                       bisect_right(times, end + WINDOW_S)] or samples
        out.append(REF_S / statistics.median(s for _, s in near))
    return out
