"""Machine-speed probe: a fixed reference kernel timed beside each interval.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x over seconds to minutes, and process CPU time swings with it, so a
median of raw wall times spreads from run to run by about as much as any
bound worth gating.  The probe times a fixed kernel that touches nothing of
growthopt just before and just after each measured interval; the interval
is then rescaled by the kernel's nominal time over its measured time.  A
change to the program moves the interval and leaves the kernel alone, so
the rescaled time moves by the same share as the raw one.

The kernel mixes the kinds of work the workloads do, in about the shares
their time splits into: an interpreted loop, numpy operations on a
288-element array (the size of the fixed-cost grid), einsum and gather
sweeps over small tables, passes over a 1 MB array and Philox sampling.
Its working set stays a few MB, so it does not lift the peak RSS of the
small workloads much.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal time of one kernel: about its median on the 2-vCPU x86-64 VM the
# benchmark was written on (0.16 s to 0.23 s over 40 runs), so rescaled
# times read close to seconds there.
REF_S = 0.17

_TABLES = np.random.default_rng(0)
_P = _TABLES.random((45, 16, 2, 4))
_W = _TABLES.random((6, 2, 4))
_IDX = _TABLES.integers(0, 45 * 16, size=(45, 16))


def reference_kernel() -> float:
    total = 0
    for i in range(600_000):
        total += i * i
    small = np.arange(288.0)
    for _ in range(7_500):
        small = np.maximum(small * 0.99, small[::-1] + 1.0)
    v = np.linspace(0.0, 1.0, 45 * 16)
    for _ in range(900):
        ev = np.einsum("pjqs,zqs->pjz", _P * v[_IDX][:, :, None, None], _W)
        v = np.maximum(0.9 * ev.max(axis=2).ravel(), v)
    big = np.ones(125_000)
    for _ in range(180):
        big = big * 1.0001 + 1.0
    gen = np.random.Generator(np.random.Philox(1))
    for _ in range(12):
        np.cumsum(gen.integers(0, 3, size=(250, 256))
                  + gen.standard_normal((250, 256)), axis=1)
    return float(total % 7) + float(small[0]) + float(v[0]) + float(big[0])


def probe() -> float:
    """Wall time of one reference kernel, in seconds."""
    t = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t


def rescale(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` at the nominal speed, from the probes around it."""
    return wall * REF_S * 2.0 / (ref_before + ref_after)
