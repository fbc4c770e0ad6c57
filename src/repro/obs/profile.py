"""Wall-clock sampling profiler: where time goes *between* the spans.

Spans time what we thought to instrument; a sampling profiler times
everything else -- the numpy reduction nobody wrapped, the JSON
serializer on the HTTP thread, the lock a worker parks on.  A dedicated
sampler thread wakes ``hz`` times a second (default 97 -- prime, so it
cannot phase-lock with millisecond-periodic servers), snapshots every
thread's stack via ``sys._current_frames()``, and folds each into the
flamegraph collapsed-stack form ``thread;outer;...;inner count`` --
the text format speedscope, ``flamegraph.pl`` and ``inferno`` all read
directly.

When a sampled thread is inside an active span (the tracer's
cross-thread mirror, :func:`repro.obs.trace.active_spans`), the fold is
prefixed with a ``span:`` frame carrying the span's engine/layer
attribution (``span:engine.matmul[biqgemm]``), so LUT-kernel time and
"other" time separate in the same flamegraph.

Cost model: the profiled threads pay nothing -- sampling happens from
outside, and the sampler's own GIL hold is a few stack walks per wake.
The ``obs_overhead`` benchmark gates the measured overhead at the
default rate to <1%.  Memory is bounded: at most ``max_stacks`` unique
folds are kept; further novel stacks aggregate into a ``(truncated)``
bucket.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.obs import runtime as _rt

__all__ = [
    "SamplingProfiler",
    "get_profiler",
    "start",
    "stop",
]

#: Default sampling rate.  Prime on purpose: a server doing periodic
#: work at a round millisecond cadence can never phase-lock with it.
DEFAULT_HZ = 97.0

#: Unique folded stacks retained before aggregating into (truncated).
DEFAULT_MAX_STACKS = 4096

#: Frames kept per sample, innermost out (deep recursion is cut, the
#: hot leaf survives).
DEFAULT_MAX_FRAMES = 64

_TRUNCATED = "(truncated)"


def _span_frame(span) -> str | None:
    """The attribution frame for an active span, or None.

    ``engine.matmul`` spans carry their backend; the serve/gen
    lifecycle spans are self-describing by name.
    """
    try:
        name = span.name
        backend = span.attrs.get("backend")
    except Exception:  # span may be ending concurrently
        return None
    if backend is not None:
        return f"span:{name}[{backend}]"
    return f"span:{name}"


class SamplingProfiler:
    """Samples all thread stacks from a dedicated daemon thread.

    Thread-safe; :meth:`start`/:meth:`stop` are idempotent.  Folded
    counts survive a stop so a stopped profiler still exports; a fresh
    :meth:`start` keeps accumulating unless :meth:`clear` is called.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        *,
        max_stacks: int = DEFAULT_MAX_STACKS,
        max_frames: int = DEFAULT_MAX_FRAMES,
    ):
        if hz <= 0 or hz > 1000:
            raise ValueError(f"hz must be in (0, 1000], got {hz}")
        if max_stacks <= 0:
            raise ValueError(f"max_stacks must be positive, got {max_stacks}")
        if max_frames <= 0:
            raise ValueError(f"max_frames must be positive, got {max_frames}")
        self.hz = float(hz)
        self.max_stacks = int(max_stacks)
        self.max_frames = int(max_frames)
        self._lock = threading.Lock()
        self._folded: dict[str, int] = {}
        self._samples = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SamplingProfiler":
        with self._lock:
            if self._thread is not None:
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._thread.start()
        _rt.set_profiling(True)
        return self

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        _rt.set_profiling(False)

    @property
    def running(self) -> bool:
        return self._thread is not None

    def clear(self) -> None:
        with self._lock:
            self._folded.clear()
            self._samples = 0

    # -- sampling ------------------------------------------------------
    def _run(self) -> None:
        from repro.obs.trace import active_spans

        interval = 1.0 / self.hz
        own_ident = threading.get_ident()
        names = {}  # ident -> thread name, refreshed lazily
        next_wake = time.monotonic()
        while True:
            next_wake += interval
            delay = next_wake - time.monotonic()
            if delay <= 0:
                # Fell behind (heavy GIL contention): resynchronize
                # rather than burst-sampling to catch up.
                next_wake = time.monotonic()
            elif self._stop.wait(delay):
                return
            if self._stop.is_set():
                return
            frames = sys._current_frames()
            spans = active_spans() if _rt.TRACING else {}
            if len(names) != threading.active_count():
                names = {
                    t.ident: t.name
                    for t in threading.enumerate()
                    if t.ident is not None
                }
            folds = []
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                stack = []
                depth = 0
                while frame is not None and depth < self.max_frames:
                    code = frame.f_code
                    stack.append(
                        f"{code.co_name} ({code.co_filename.rsplit('/', 1)[-1]}"
                        f":{frame.f_lineno})"
                    )
                    frame = frame.f_back
                    depth += 1
                stack.append(names.get(ident, f"thread-{ident}"))
                span = spans.get(ident)
                if span is not None:
                    tag = _span_frame(span)
                    if tag is not None:
                        stack.insert(0, tag)
                folds.append(";".join(reversed(stack)))
            del frames
            with self._lock:
                self._samples += 1
                for fold in folds:
                    count = self._folded.get(fold)
                    if count is not None:
                        self._folded[fold] = count + 1
                    elif len(self._folded) < self.max_stacks:
                        self._folded[fold] = 1
                    else:
                        self._folded[_TRUNCATED] = (
                            self._folded.get(_TRUNCATED, 0) + 1
                        )

    # -- reading -------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "running": self._thread is not None,
                "hz": self.hz,
                "samples": self._samples,
                "unique_stacks": len(self._folded),
                "max_stacks": self.max_stacks,
            }

    def folded(self) -> str:
        """The collapsed-stack text (``stack count`` per line, counts
        descending) -- paste into speedscope or pipe to flamegraph.pl."""
        with self._lock:
            items = sorted(
                self._folded.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return "\n".join(f"{stack} {count}" for stack, count in items)


# ----------------------------------------------------------------------
# the process-wide profiler (mirrors tracer/recorder)
# ----------------------------------------------------------------------
_PROFILER: SamplingProfiler | None = None
_PROFILER_LOCK = threading.Lock()


def get_profiler() -> SamplingProfiler | None:
    """The process profiler, or None if one was never started."""
    return _PROFILER


def start(
    hz: float = DEFAULT_HZ,
    *,
    max_stacks: int = DEFAULT_MAX_STACKS,
    clear: bool = False,
) -> SamplingProfiler:
    """Start (or return) the process-wide sampling profiler."""
    global _PROFILER
    with _PROFILER_LOCK:
        profiler = _PROFILER
        if profiler is None or profiler.hz != hz:
            if profiler is not None:
                profiler.stop()
            profiler = _PROFILER = SamplingProfiler(
                hz, max_stacks=max_stacks
            )
        if clear:
            profiler.clear()
    return profiler.start()


def stop() -> None:
    """Stop the process-wide profiler (folded stacks stay exportable)."""
    profiler = _PROFILER
    if profiler is not None:
        profiler.stop()
