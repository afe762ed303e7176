"""A fixed kernel that times the host, so op timings can be put at one reference speed.

The benchmark runs on a few cores of a shared host whose speed comes and
goes: the same design_sweep ops on the same code ran at 20 to 45 ops/s in
different runs, with the process's CPU time following its wall time (no
steal), and the kernel below itself swings by about 25% from one second to
the next. Medians within a run cannot remove a drift slower than a run, so
every timed op is followed by this kernel, and an op's time is reported as

    measured seconds x REFERENCE_S / (median time of the kernel runs around it)

that is, in seconds of a host on which the kernel takes REFERENCE_S. The
kernel is the benchmark's own code and never calls the program, so a change
to the program moves the op timings and not the kernel's; run.py prints the
wall-clock figures next to the scaled ones.

The kernel mixes the two kinds of work the program does: scalar Python
arithmetic and function calls (the designer's scan, the simulator's rating
loop) and numpy draws, broadcasts and reductions (the oracle, the
simulator's draws and aggregation), in about equal time.
"""

from __future__ import annotations

import math
import time

import numpy as np

# A round figure near the kernel's median seconds on a 2-vCPU host (Python
# 3.11.7, numpy 2.4.6); it only sets the scale of the reported units.
REFERENCE_S = 0.004
# Buffers made once: the kernel allocates no array, so what the program left
# in the heap (and glibc's mmap threshold it moved) does not change its time.
_ROW = np.linspace(0.0, 1.0, 600)
_GRID = np.empty((600, 600))
_DRAWS = np.empty((300, 400))
_BELOW = np.empty((300, 400), dtype=bool)


def _line(x: float, a: float, b: float) -> float:
    return a * x + b * math.exp(-x)


def _scalar(n: int = 8000) -> float:
    total, state = 0.0, {"a": 0.3, "b": 0.7}
    for i in range(n):
        x = (i % 97) / 97.0
        total += _line(x, state["a"], state["b"]) if x < 0.9 else math.sqrt(x)
    return total


def _arrays() -> float:
    np.random.default_rng(12345).random(out=_DRAWS)
    np.less(_DRAWS, 0.5, out=_BELOW)
    np.multiply(_ROW[:, None], _ROW[None, :], out=_GRID)
    np.subtract(_GRID, 0.25, out=_GRID)
    np.maximum(_GRID, 0.0, out=_GRID)
    return float(_GRID.sum() + _BELOW.sum())


def kernel() -> float:
    """Seconds one run of the fixed kernel takes now."""
    start = time.perf_counter()
    _scalar()
    _arrays()
    return time.perf_counter() - start
