"""Calibration loop that turns noisy wall-clock times into steady ones.

On a shared machine the speed of a CPU-bound Python process can jump by up
to 2x within fractions of a second and drift over tens of seconds, as other
tenants come and go.  Timing this fixed loop right before and right after
an operation measures the speed the operation ran at; dividing by it and
multiplying by ``REFERENCE_S`` gives *calibrated seconds*: the time the
operation would take on a CPU on which the loop takes exactly
``REFERENCE_S``.  The loop mixes what contactlab spends its time on:
small-int arithmetic, dict stores and wide-integer bit operations.
"""

from __future__ import annotations

import time

# About the loop's median time on the 2-vCPU machine the benchmark was
# tuned on (Python 3.11), so calibrated and raw seconds are of one size.
REFERENCE_S = 0.0016

_WIDE = (1 << 500) - 12345


def loop_seconds() -> float:
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFFFFFFFFFF
        table[acc & 1023] = i
    wide = _WIDE
    bits = []
    for _ in range(1500):
        wide = (wide >> 1) | ((wide & 1) << 499)
        acc += (wide & ~_WIDE).bit_count() & 3
        bits.append(wide & 0xFFFF)
    return time.perf_counter() - start


def calibrated(seconds: float, loop_before: float, loop_after: float) -> float:
    return seconds * REFERENCE_S * 2 / (loop_before + loop_after)
