"""Wall-clock measurement helpers for the experiment harness.

pytest-benchmark handles the statistics in ``benchmarks/``; the CLI path
uses these lighter helpers (median of *repeats* after *warmup* calls) so
experiments stay runnable without pytest.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

from repro._util import check_positive_int

__all__ = ["interleaved_ratio", "time_callable", "time_samples"]


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


# The timed calls in one interleaved block, and the untimed calls that
# first run the state in (its caches warm, the profiler's first tick).
BLOCK_CALLS = 4
BLOCK_WARMUP = 1


def interleaved_ratio(
    fn: Callable[[], object],
    switch: Callable[[bool], None],
    *,
    rounds: int,
    timer: Callable[[], float] = time.perf_counter,
) -> tuple[float, float, float]:
    """``(on / off, off, on)``: the median seconds of ``fn()`` with a
    setting on over its median with the setting off.

    Each round runs four blocks in the order off, on, on, off; a block
    calls ``switch(state)`` when the state changes, then
    :data:`BLOCK_WARMUP` untimed and :data:`BLOCK_CALLS` timed calls.
    Samples pool across rounds into one median per state.  The off and
    on samples sit symmetrically about the same centre in time, so a
    drift of the host's speed that is linear in time moves both medians
    alike and leaves the ratio at the true cost; drift of other shapes
    is only spread over both states, not cancelled.  The setting is
    switched off on return.
    """
    check_positive_int(rounds, "rounds")
    samples: dict[bool, list[float]] = {False: [], True: []}
    state = None
    try:
        for _ in range(rounds):
            for on in (False, True, True, False):
                if on != state:
                    switch(on)
                    state = on
                for _ in range(BLOCK_WARMUP):
                    fn()
                for _ in range(BLOCK_CALLS):
                    t0 = timer()
                    fn()
                    samples[on].append(timer() - t0)
    finally:
        switch(False)
    off = statistics.median(samples[False])
    on = statistics.median(samples[True])
    return on / off, off, on
