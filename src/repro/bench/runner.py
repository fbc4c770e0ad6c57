"""Wall-clock measurement helpers for the experiment harness.

pytest-benchmark handles the statistics in ``benchmarks/``; the CLI path
uses these lighter helpers (median of *repeats* after *warmup* calls) so
experiments stay runnable without pytest.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro._util import check_positive_int

__all__ = ["time_callable", "time_samples"]


def time_samples(
    fn: Callable[[], object],
    *,
    repeats: int = 5,
    warmup: int = 1,
) -> list[float]:
    """Sorted wall-clock seconds of *repeats* calls of ``fn()``, after
    *warmup* untimed calls: ``[0]`` is the minimum, ``[repeats // 2]``
    the p50."""
    check_positive_int(repeats, "repeats")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return sorted(samples)


def time_callable(
    fn: Callable[[], object],
    *,
    repeats: int = 5,
    warmup: int = 1,
) -> float:
    """Median wall-clock seconds of ``fn()`` over *repeats* calls."""
    return float(np.median(time_samples(fn, repeats=repeats, warmup=warmup)))
