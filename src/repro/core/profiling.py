"""Phase timers and an allocation meter for the BiQGEMM pipeline.

The paper profiles BiQGEMM into three operations: lookup-table
construction (*build*), value retrieval (*query*) and memory replacement
for tiling (*replace*).  :class:`PhaseProfiler` accumulates wall-clock
time per phase across any number of calls of the numpy
:class:`~repro.core.kernel.BiQGemm` (``matmul(profiler=...)``) and
reports the same proportions Fig. 8 plots.

:func:`measure_hot_loop` records, through tracemalloc, the transient
bytes each call of a warmed callable allocates (the gated
``alloc_b1_bytes`` of the ``steady_state`` experiment).  tracemalloc
sees numpy array data (numpy registers its buffers with the tracemalloc
domain), so it covers every transient numpy buffer a call allocates.
Peak tracking is process-global; measure single-threaded.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "PhaseProfiler",
    "PHASES",
    "allocation_tracking",
    "measure_hot_loop",
]

PHASES = ("build", "query", "replace")
"""Canonical phase names, matching the paper's Fig. 8 legend."""

_DEFAULT_MIN_ALLOC = 16 * 1024
"""Transient bytes below which a call is not an allocation event.

Python-level bookkeeping (frames, small ints, ndarray view headers)
costs a few hundred bytes per call; real numpy buffer churn in the
kernel shapes of interest starts in the tens of kilobytes.  The margin
between the two is what makes "zero allocations" assertable at all.
"""


@contextmanager
def allocation_tracking() -> Iterator[None]:
    """Ensure tracemalloc is tracing for the duration.

    Leaves a tracemalloc session started by the caller running; starts
    (and stops) one otherwise.
    """
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        yield
    finally:
        if started_here:
            tracemalloc.stop()


def measure_hot_loop(
    fn: Callable[[], object],
    *,
    warmups: int = 2,
    repeats: int = 3,
    min_alloc_bytes: int = _DEFAULT_MIN_ALLOC,
) -> dict:
    """Measure the steady-state allocation behaviour of *fn*.

    Runs *fn* ``warmups`` times (populating caches), then
    ``repeats`` measured times; each measured call records the peak
    tracemalloc bytes above its entry level (the transient footprint of
    everything the call allocated, even if freed before returning --
    net deltas would hide churn).  Returns::

        {"alloc_events": calls whose peak exceeded min_alloc_bytes,
         "peak_new_bytes": largest per-call transient footprint,
         "calls": repeats, "min_alloc_bytes": threshold}
    """
    if warmups < 0 or repeats < 1:
        raise ValueError("warmups must be >= 0 and repeats >= 1")
    events = 0
    peak_max = 0
    with allocation_tracking():
        for _ in range(warmups):
            fn()
        gc.collect()
        for _ in range(repeats):
            tracemalloc.reset_peak()
            current0, _ = tracemalloc.get_traced_memory()
            fn()
            _, peak = tracemalloc.get_traced_memory()
            delta = max(0, peak - current0)
            peak_max = max(peak_max, delta)
            if delta >= min_alloc_bytes:
                events += 1
    return {
        "alloc_events": events,
        "peak_new_bytes": peak_max,
        "calls": repeats,
        "min_alloc_bytes": min_alloc_bytes,
    }


class PhaseProfiler:
    """Accumulates wall-clock seconds per named pipeline phase.

    Thread-safe: concurrent tiles may record phases simultaneously (the
    totals then reflect aggregate busy time, not the critical path --
    Fig. 8 is single-threaded, matching the paper's setup).

    Example
    -------
    >>> prof = PhaseProfiler()
    >>> with prof.phase("build"):
    ...     pass
    >>> sorted(prof.seconds) == ['build', 'query', 'replace']
    True
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = {p: 0.0 for p in PHASES}
        self.calls: dict[str, int] = {p: 0 for p in PHASES}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager timing one phase occurrence."""
        if name not in self.seconds:
            raise ValueError(f"unknown phase {name!r}; expected one of {PHASES}")
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Record *seconds* against phase *name* without a context manager."""
        if name not in self.seconds:
            raise ValueError(f"unknown phase {name!r}; expected one of {PHASES}")
        with self._lock:
            self.seconds[name] += float(seconds)
            self.calls[name] += 1

    @property
    def total(self) -> float:
        """Total profiled seconds across all phases."""
        return sum(self.seconds.values())

    def proportions(self) -> dict[str, float]:
        """Fraction of total time per phase (the Fig. 8 y-axis).

        Returns all-zero fractions when nothing was recorded.
        """
        total = self.total
        if total <= 0.0:
            return {p: 0.0 for p in PHASES}
        return {p: self.seconds[p] / total for p in PHASES}

    def reset(self) -> None:
        """Zero all accumulators."""
        with self._lock:
            for p in PHASES:
                self.seconds[p] = 0.0
                self.calls[p] = 0

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's totals into this one."""
        with self._lock:
            for p in PHASES:
                self.seconds[p] += other.seconds[p]
                self.calls[p] += other.calls[p]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{p}={self.seconds[p]:.4f}s" for p in PHASES)
        return f"PhaseProfiler({parts})"
