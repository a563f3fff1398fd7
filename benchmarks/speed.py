"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the speed the benchmark's process gets drifts by up to 1.6x
over tens of seconds, and a run-level time follows it. The benchmark therefore
times this kernel next to every measured operation and set-up and reports
their times as multiples of it, scaled by ``NOMINAL_S``: a time at nominal
machine speed, on a machine where the kernel takes ``NOMINAL_S`` seconds. The
kernel is benchmark code, so the program under test cannot change its time.
It mixes the kinds of work the program does: interpreted loops and string
formatting, vector arithmetic on freshly allocated arrays, and small dense LU
factorisations.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

#: Seconds the kernel took on the machine the benchmark was tuned on
#: (2 vCPUs of a shared Intel Xeon host), at its usual speed.
NOMINAL_S = 0.04

_MATRIX = np.random.default_rng(0).standard_normal((60, 60)) + 60.0 * np.eye(60)


def kernel() -> float:
    text = ",".join(f"{k * 1.000000123:.17g}" for k in range(12000))
    total = float(sum(len(cell) for cell in text.split(",")))
    a = np.arange(1 << 19, dtype=float)
    for _ in range(8):
        a = np.sqrt(a * a + 1.0)
    total += float(a[-1])
    for _ in range(200):
        total += float(scipy.linalg.lu_factor(_MATRIX)[0][0, 0])
    return total


def seconds() -> float:
    """Host seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
