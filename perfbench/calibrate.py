"""Host-speed calibration: a fixed kernel timed around every sample.

The shared host this benchmark was built on changes speed by up to 1.6x over
seconds to minutes, far more than any bound the benchmark could keep, and no
statistic inside a 40 s run removes a slow stretch that covers it. So every
timed sample is taken between two runs of this kernel in the same process,
and run.py reports it as

    seconds * REFERENCE_S / (mean of the two kernel times),

i.e. in seconds at the host speed where the kernel takes REFERENCE_S.

The kernel is fixed and shares no code with hhlab, so a faster program still
reads faster. It mixes the two kinds of work hhlab does: a Python loop over
4-component numpy arrays (an RK4 march, like hhlab's DP5(4) stepper and
Picard loops) and vectorised passes over a 200k-element array (memory-bound,
like the Green solves on large grids). On the 2-vCPU Xeon host, 40 s
windows of the scan time tracked a twice as long version of this kernel
with a correlation of 0.94, while a pure-Python loop alone did not track
them (see README).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.030     # the kernel's typical time on a 2.1 GHz Xeon vCPU
RK_STEPS = 1500
ARRAY_SIZE = 200_000
ARRAY_PASSES = 6


def _rhs(y):
    return np.array([y[1], -y[0] + 0.1 * y[2], y[3], -y[2] * abs(y[0])])


def kernel() -> float:
    y = np.array([1.0, 0.5, 0.25, 0.125])
    h = 1e-3
    for _ in range(RK_STEPS):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * h * k1)
        k3 = _rhs(y + 0.5 * h * k2)
        k4 = _rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    a = np.linspace(0.0, 1.0, ARRAY_SIZE)
    b = np.empty_like(a)
    for _ in range(ARRAY_PASSES):       # in place: two arrays, 3.2 MB
        np.multiply(a, a, out=b)
        b += 1.0
        np.sqrt(b, out=a)
    return float(y[0] + a[-1])


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def at_reference(seconds: float, calibration: list) -> float:
    """`seconds` measured between the kernel times `calibration`, scaled to
    the host speed where the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / (sum(calibration) / len(calibration))
