"""Host-speed calibration: operation times scaled to a reference host speed.

The benchmark runs on shared hosts whose speed for identical single-threaded
work changes by up to 1.8x for stretches of seconds to minutes (CPU time
moves with wall time, so it is not descheduling).  ``kernel()`` is a fixed
piece of work in the same mix as the workloads (interpreter dispatch, small
numpy calls, a Cayley-Dickson product batch, a small SVD, a JSON round trip)
that uses none of octe6.  It is timed between slices of operations; each
operation's time is multiplied by ``REF_S / k``, where ``k`` is the mean of
the kernel times just before and just after its slice.  A change to octe6
leaves the kernel alone, so it moves the scaled times in full.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

import oracle

# kernel() on the fast state of the 2-core VM the benchmark was tuned on
# (Python 3.11, numpy 2.4, OpenBLAS on one thread); scaled times read as
# seconds on such a host
REF_S = 0.007

_rng = np.random.default_rng(0)
_X, _Y = _rng.standard_normal((2, 64, 8))
_M = _rng.standard_normal((27, 27))
_DOC = {"diag": [1.5, -2.25, 0.125], "a": list(range(8)), "b": [0.5] * 8, "c": [-1.0] * 8}


def kernel() -> float:
    acc: dict[int, int] = {}
    for i in range(2500):
        acc[i % 97] = acc.get(i % 97, 0) + i
    a = np.zeros(8)
    for i in range(250):
        a = np.sqrt(0.5 * a * a + _X[i % 64] ** 2)
    for _ in range(25):
        oracle.omul(_X, _Y)
    for _ in range(10):
        np.linalg.svd(_M)
    for _ in range(25):
        json.loads(json.dumps(_DOC))
    return float(a[0]) + acc[0]


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Calibrated:
    """Collects raw operation times and scales each slice by the kernel around it.

    ``add(key, seconds)`` stores a raw time; once ``SLICE_S`` has passed since
    the last kernel run, ``tick()`` runs the kernel and moves the slice's times
    into ``scaled[key]``.  ``flush()`` closes the last slice.
    """

    SLICE_S = 0.05

    def __init__(self):
        self.scaled: dict[object, list[float]] = {}
        self.kernel_s: list[float] = []
        self._pending: list[tuple[object, float]] = []
        self._before = time_kernel()
        self._opened = perf_counter()

    def add(self, key, seconds: float) -> None:
        self._pending.append((key, seconds))

    def tick(self) -> None:
        if perf_counter() - self._opened >= self.SLICE_S:
            self.flush()

    def flush(self) -> None:
        after = time_kernel()
        self.kernel_s.append(after)
        scale = REF_S / (0.5 * (self._before + after))
        for key, seconds in self._pending:
            self.scaled.setdefault(key, []).append(seconds * scale)
        self._pending.clear()
        self._before = after
        self._opened = perf_counter()
