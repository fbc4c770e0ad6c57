"""Structured request tracing: spans, context propagation, exporters.

The paper's own analysis is a trace analysis -- Fig. 8 decomposes one
BiQGEMM call into build/query/replace to show where the LUT win comes
from.  This module generalizes that decomposition to the whole serving
request lifecycle: a request produces a tree of :class:`Span`\\ s
(``serve.admit`` -> ``serve.queue`` -> ``serve.batch`` ->
``worker.execute`` -> per-layer ``engine.matmul``) with
monotonic timestamps, parent links, and **fan-in links** where one batch
span serves many request spans.

Design constraints, in order:

1. **Disabled is free.**  Tracing is off by default; call sites guard on
   :data:`repro.obs.runtime.TRACING` and :func:`span` returns a shared
   no-op context manager, so the steady-state hot loop pays one boolean
   read and zero allocations.
2. **Cross-thread parentage is explicit.**  Within a thread, spans
   parent onto the thread-local current span automatically.  Across
   threads (HTTP thread -> batcher queue -> worker thread) the producer
   captures :func:`current_context` and the consumer passes it as
   ``parent=``; the batcher/pool integration does exactly this, so a
   trace id follows a request through every hand-off.
3. **Bounded memory.**  Finished spans land in a ring buffer
   (``max_spans``, default 2^16); a serving process that traces forever
   keeps the most recent window and counts what it dropped.

Exporters: :meth:`Tracer.trace_events` renders the ``chrome://tracing``
/ Perfetto trace-event JSON format (one complete-event per span, fan-in
links and attributes in ``args``); :meth:`Tracer.save` writes it to a
file.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from collections import deque
from typing import Iterator

from repro.obs import runtime as _rt

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "activate",
    "active_spans",
    "current_context",
    "disable",
    "enable",
    "get_tracer",
    "is_enabled",
    "new_trace_id",
    "span",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace (request) id."""
    return uuid.uuid4().hex[:16]


_SPAN_IDS = itertools.count(1)


class SpanContext(tuple):
    """Immutable ``(trace_id, span_id)`` pair -- the cross-thread handle.

    A producer thread captures its :func:`current_context` and hands it
    to whatever executes on its behalf; the consumer passes it as the
    ``parent=`` of the spans it opens.
    """

    __slots__ = ()

    def __new__(cls, trace_id: str, span_id: str) -> "SpanContext":
        return tuple.__new__(cls, (trace_id, span_id))

    @property
    def trace_id(self) -> str:
        return self[0]

    @property
    def span_id(self) -> str:
        return self[1]


class Span:
    """One timed operation: name, monotonic window, parentage, attrs.

    Timestamps are ``time.perf_counter_ns()`` (monotonic; comparable
    only within the process, which is what a timeline viewer needs).
    ``links`` carry fan-in: a batch span links the request spans it
    serves, none of which is its parent.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_ns",
        "end_ns",
        "attrs",
        "links",
        "thread",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: str | None,
        tracer: "Tracer",
        links: tuple[SpanContext, ...] = (),
        attrs: dict | None = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = f"{next(_SPAN_IDS):x}"
        self.parent_id = parent_id
        self.links = links
        self.attrs = attrs if attrs is not None else {}
        self.thread = threading.current_thread().name
        self.start_ns = time.perf_counter_ns()
        self.end_ns: int | None = None
        self._tracer = tracer

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def set(self, **attrs) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def end(self) -> None:
        """Close the span and record it (idempotent)."""
        if self.end_ns is None:
            self.end_ns = time.perf_counter_ns()
            self._tracer._record(self)

    def to_dict(self) -> dict:
        """JSON-able flat record (the tracer's native snapshot form)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "thread": self.thread,
            "links": [list(link) for link in self.links],
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_ns is None else f"{self.duration_ns}ns"
        return f"Span({self.name!r}, trace={self.trace_id}, {state})"


class _NoopSpan:
    """The disabled-path span: every operation is a no-op.

    A single shared instance is returned by :func:`span` when tracing
    is off, so the disabled fast path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def end(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()

_TLS = threading.local()

#: Thread ident -> innermost active span.  The thread-local stack is
#: invisible from other threads, but the sampling profiler
#: (:mod:`repro.obs.profile`) needs to ask "what span is thread X in
#: right now" from its own sampler thread -- this mirror answers that.
#: Single dict assignments/deletes are GIL-atomic, so the hot path adds
#: no lock; entries are keyed by ident, which the interpreter reuses,
#: keeping the dict bounded by live thread count.
_ACTIVE_SPANS: dict[int, Span] = {}


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def active_spans() -> dict[int, "Span"]:
    """Snapshot of ``{thread ident: innermost active span}`` across all
    threads (the profiler's attribution source).  Cheap shallow copy;
    spans may end concurrently, so treat the values as read-only."""
    return dict(_ACTIVE_SPANS)


def current_context() -> SpanContext | None:
    """The active span's context on this thread, or ``None``.

    This is what crosses thread boundaries: capture it where the work
    is submitted, pass it as ``parent=`` where the work runs.
    """
    stack = getattr(_TLS, "stack", None)
    if not stack:
        return None
    return stack[-1].context


class _SpanGuard:
    """Context manager pushing a live span onto the thread-local stack."""

    __slots__ = ("span",)

    def __init__(self, span: Span):
        self.span = span

    def __enter__(self) -> Span:
        _stack().append(self.span)
        _ACTIVE_SPANS[threading.get_ident()] = self.span
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _stack()
        if stack and stack[-1] is self.span:
            stack.pop()
        ident = threading.get_ident()
        if stack:
            _ACTIVE_SPANS[ident] = stack[-1]
        else:
            _ACTIVE_SPANS.pop(ident, None)
        if exc is not None:
            self.span.attrs.setdefault("error", type(exc).__name__)
        self.span.end()


def activate(span: Span) -> _SpanGuard:
    """Activate an already-started span on this thread (context
    manager): spans opened inside parent onto it, and it ends on exit.

    The consumer half of a cross-thread hand-off -- a worker activates
    the span it built from a producer's :class:`SpanContext`.
    """
    return _SpanGuard(span)


class Tracer:
    """Bounded recorder of finished spans plus span factories."""

    def __init__(self, max_spans: int = 65536):
        if max_spans <= 0:
            raise ValueError(f"max_spans must be positive, got {max_spans}")
        self.max_spans = int(max_spans)
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=self.max_spans)
        self.recorded = 0  # lifetime finished spans
        self.dropped = 0  # evicted from the ring buffer

    # -- recording -----------------------------------------------------
    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self.max_spans:
                self.dropped += 1
            self._spans.append(span)
            self.recorded += 1

    def start_span(
        self,
        name: str,
        *,
        parent: SpanContext | None = None,
        trace_id: str | None = None,
        links: tuple[SpanContext, ...] = (),
        **attrs,
    ) -> Span:
        """Open a span without activating it on this thread.

        The cross-thread spelling: the caller owns the span object and
        must :meth:`Span.end` it.  ``parent`` (a context captured on
        another thread) wins over the thread-local current span;
        ``trace_id`` forces a root span onto a known request id.
        """
        if parent is None and trace_id is None:
            parent = current_context()
        if parent is not None:
            tid, pid = parent.trace_id, parent.span_id
        else:
            tid, pid = trace_id or new_trace_id(), None
        return Span(
            name,
            trace_id=tid,
            parent_id=pid,
            tracer=self,
            links=tuple(links),
            attrs=attrs or None,
        )

    def span(self, name: str, **kwargs) -> _SpanGuard:
        """Context-manager spelling of :meth:`start_span`: the span is
        activated on this thread (children parent onto it) and ended on
        exit."""
        return _SpanGuard(self.start_span(name, **kwargs))

    # -- reading -------------------------------------------------------
    def spans(self) -> list[Span]:
        """Finished spans, oldest first (the retained window)."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.recorded = 0
            self.dropped = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "recorded": self.recorded,
                "dropped": self.dropped,
                "retained": len(self._spans),
                "max_spans": self.max_spans,
            }

    # -- exporting -----------------------------------------------------
    def snapshot(self) -> list[dict]:
        """All retained spans as JSON-able dicts."""
        return [s.to_dict() for s in self.spans()]

    def trace_events(self) -> dict:
        """``chrome://tracing`` / Perfetto trace-event JSON.

        Each span becomes one complete event (``ph: "X"``) with
        microsecond timestamps; trace/span/parent ids, fan-in links and
        attributes ride in ``args`` so the viewer's selection panel
        shows the full causality of a request.
        """
        pid = os.getpid()
        events: list[dict] = []
        threads: dict[str, int] = {}
        for s in self.spans():
            tid = threads.setdefault(s.thread, len(threads) + 1)
            args = {
                "trace_id": s.trace_id,
                "span_id": s.span_id,
            }
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
            if s.links:
                args["links"] = [
                    {"trace_id": link.trace_id, "span_id": link.span_id}
                    for link in s.links
                ]
            args.update(s.attrs)
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": s.start_ns / 1e3,
                    "dur": s.duration_ns / 1e3,
                    "args": args,
                }
            )
        for thread_name, tid in threads.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread_name},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save(self, path) -> None:
        """Write the trace-event JSON to *path* (open in
        ``chrome://tracing`` or https://ui.perfetto.dev)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.trace_events(), fh)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer (exists even while tracing is off)."""
    return _TRACER


def enable(*, max_spans: int | None = None, clear: bool = False) -> Tracer:
    """Turn span recording on; returns the tracer.

    ``max_spans`` resizes the ring buffer (dropping retained spans);
    ``clear=True`` empties it first.
    """
    global _TRACER
    if max_spans is not None and max_spans != _TRACER.max_spans:
        _TRACER = Tracer(max_spans=max_spans)
    elif clear:
        _TRACER.clear()
    _rt.set_tracing(True)
    return _TRACER


def disable() -> None:
    """Turn span recording off (retained spans stay exportable)."""
    _rt.set_tracing(False)


def is_enabled() -> bool:
    return _rt.TRACING


def span(name: str, **kwargs):
    """A context-managed span on the global tracer -- or a shared no-op
    when tracing is disabled.

    The one call sites should use: ``with span("engine.matmul",
    backend="biqgemm"): ...``.  Keyword arguments become attributes;
    ``parent=`` / ``trace_id=`` / ``links=`` pass through to
    :meth:`Tracer.start_span`.
    """
    if not _rt.TRACING:
        return NOOP_SPAN
    return _TRACER.span(name, **kwargs)
