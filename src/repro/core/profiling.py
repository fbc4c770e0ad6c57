"""Phase timers and allocation counters for the BiQGEMM pipeline.

The paper profiles BiQGEMM into three operations: lookup-table
construction (*build*), value retrieval (*query*) and memory replacement
for tiling (*replace*).  :class:`PhaseProfiler` accumulates wall-clock
time per phase across any number of kernel invocations and reports the
same proportions Fig. 8 plots.

With ``track_allocations=True`` each phase also records, through
tracemalloc, the peak bytes allocated above its entry level, and counts
the phase occurrences whose transient footprint exceeded
``min_alloc_bytes`` -- an *allocation event*.  A steady-state engine
hot loop (:meth:`~repro.core.kernel.BiQGemm.matmul` served from a warm
:class:`~repro.core.workspace.Workspace`) records zero events;
benchmarks assert exactly that.  :func:`measure_hot_loop` is the
standalone spelling for measuring any callable the same way.

tracemalloc sees numpy array data (numpy registers its buffers with the
tracemalloc domain), so these counters cover every transient numpy
buffer a call allocates.  Peak tracking is process-global; run
allocation measurement single-threaded (as Fig. 8 does for time).
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
"""Transient bytes below which a phase/call is not an allocation event.

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

    Runs *fn* ``warmups`` times (populating caches and arenas), then
    ``repeats`` measured times; each measured call records the peak
    tracemalloc bytes above its entry level (the transient footprint of
    everything the call allocated, even if freed before returning --
    net deltas would hide churn).  Returns::

        {"alloc_events": calls whose peak exceeded min_alloc_bytes,
         "peak_new_bytes": largest per-call transient footprint,
         "calls": repeats, "min_alloc_bytes": threshold}

    ``alloc_events == 0`` is the zero-allocation steady-state
    criterion the engine hot loop is gated on.
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
    """Accumulates wall-clock seconds (and optionally allocation peaks)
    per named pipeline phase.

    Thread-safe for timing: concurrent tiles may record phases
    simultaneously (the totals then reflect aggregate busy time, not
    the critical path -- Fig. 8 is single-threaded, matching the
    paper's setup).  Allocation tracking uses the process-global
    tracemalloc peak and is only meaningful single-threaded; it
    requires tracemalloc to be tracing (see :func:`allocation_tracking`)
    and records zeros otherwise.

    Example
    -------
    >>> prof = PhaseProfiler()
    >>> with prof.phase("build"):
    ...     pass
    >>> sorted(prof.seconds) == ['build', 'query', 'replace']
    True
    """

    def __init__(
        self,
        *,
        track_allocations: bool = False,
        min_alloc_bytes: int = _DEFAULT_MIN_ALLOC,
        span_prefix: str | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = {p: 0.0 for p in PHASES}
        self.calls: dict[str, int] = {p: 0 for p in PHASES}
        self.track_allocations = bool(track_allocations)
        self.min_alloc_bytes = int(min_alloc_bytes)
        self.alloc_bytes: dict[str, int] = {p: 0 for p in PHASES}
        self.alloc_events: dict[str, int] = {p: 0 for p in PHASES}
        # With span_prefix set, each phase occurrence also opens a
        # ``<prefix><phase>`` span on the global tracer -- the bridge
        # that puts the Fig. 8 build/query/replace decomposition on a
        # live request timeline (``repro.obs.kernel_profiler`` uses
        # prefix "kernel.").  No-op while tracing is disabled.
        self.span_prefix = span_prefix

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager timing (and optionally alloc-counting) one
        phase occurrence."""
        if name not in self.seconds:
            raise ValueError(f"unknown phase {name!r}; expected one of {PHASES}")
        phase_span = None
        if self.span_prefix is not None:
            from repro.obs.trace import span as _span

            phase_span = _span(self.span_prefix + name)
            phase_span.__enter__()
        tracking = self.track_allocations and tracemalloc.is_tracing()
        if tracking:
            tracemalloc.reset_peak()
            mem0 = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        try:
            yield
        finally:
            if phase_span is not None:
                phase_span.__exit__(None, None, None)
            elapsed = time.perf_counter() - start
            delta = 0
            if tracking:
                delta = max(0, tracemalloc.get_traced_memory()[1] - mem0)
            with self._lock:
                self.seconds[name] += elapsed
                self.calls[name] += 1
                if tracking:
                    self.alloc_bytes[name] += delta
                    if delta >= self.min_alloc_bytes:
                        self.alloc_events[name] += 1

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

    @property
    def total_alloc_events(self) -> int:
        """Allocation events across all phases (0 = steady state)."""
        return sum(self.alloc_events.values())

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
                self.alloc_bytes[p] = 0
                self.alloc_events[p] = 0

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's totals into this one."""
        with self._lock:
            for p in PHASES:
                self.seconds[p] += other.seconds[p]
                self.calls[p] += other.calls[p]
                self.alloc_bytes[p] += other.alloc_bytes[p]
                self.alloc_events[p] += other.alloc_events[p]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{p}={self.seconds[p]:.4f}s" for p in PHASES)
        return f"PhaseProfiler({parts})"
