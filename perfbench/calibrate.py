"""Host-speed calibration: a fixed kernel timed next to every job.

The shared 2-vCPU host this benchmark was defined on changes speed by up to
50% over tens of seconds, and a 40-second run can fall wholly into a fast or
a slow phase. CPU time does not help: the host steals no time from the guest,
it just runs the same instructions slower. So the benchmark times this
kernel before every job and scales each job's wall time by how fast the host
ran the kernel around it:

    adjusted = wall * REFERENCE_S / (median kernel time of the neighbouring jobs)

An adjusted second is the time in which a host running the kernel in
`REFERENCE_S` would do the same work. The kernel does not touch projpair, so
a change to the program moves the adjusted times by its full effect.

The kernel mixes the three kinds of work the jobs do: an interpreter loop,
small-matrix numpy calls, and 24x24 complex matmuls in BLAS. On the host
above, the 10-second-window medians of job latency spread by 0.12-0.18
(IQR over median) raw and by 0.03-0.04 adjusted, on each workload.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Kernel time at reference speed, about its time on the defining host's fast
# phase; it sets the scale of every adjusted time and is never measured.
REFERENCE_S = 0.005
# Each job is scaled by the median of the kernel times of itself and its
# NEIGHBOURS jobs on either side.
NEIGHBOURS = 3

_rng = np.random.default_rng(0)
_BLAS = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
_SMALL = _rng.standard_normal((4, 4))


def kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    start = perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    x = _BLAS
    for _ in range(75):
        x = (x @ _BLAS) / 30.0
        np.linalg.norm(x)
    y = _SMALL
    for _ in range(300):
        y = np.abs(y @ _SMALL) / (1.0 + y.sum())
    return perf_counter() - start


def adjust(walls, kernels, neighbours: int = NEIGHBOURS) -> list[float]:
    """Scale each wall time to reference speed by the kernel times around it.

    `kernels[i]` is the kernel time measured next to `walls[i]`.
    """
    if len(walls) != len(kernels):
        raise ValueError("one kernel time per wall time")
    return [
        wall * REFERENCE_S / statistics.median(kernels[max(0, i - neighbours):i + neighbours + 1])
        for i, wall in enumerate(walls)
    ]
