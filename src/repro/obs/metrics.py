"""Unified metrics registry: counters, gauges, histograms, exporters.

One registry for the whole process: serve, engine dispatch, the plan
cache, workspace arenas and the batcher all publish here, so a single
scrape answers "where do time, memory and mispredictions go" instead of
five subsystem-private snapshot dicts.  Two publishing styles:

- **push**: hot paths that already count under a lock (the serving
  telemetry) hand their instruments straight to the registry
  (:meth:`MetricsRegistry.register_histogram`) or increment a
  :class:`Counter` / :class:`Gauge` they created once;
- **pull**: subsystems with existing snapshot functions (plan cache,
  workspace arenas, engine builds) register a **collector** callback
  that copies their counters into the registry at scrape time -- zero
  hot-path cost, which is what keeps the disabled-observability serving
  loop free.

Exporters: :meth:`MetricsRegistry.to_json` (the ``/metrics`` JSON
section) and :meth:`MetricsRegistry.to_prometheus` (text exposition
format, version 0.0.4 -- what ``/metrics?format=prometheus`` serves).

:class:`Histogram` here absorbs the former
``repro.serve.telemetry.Histogram`` (which now re-exports it): a
bounded-window reservoir whose quantiles use **linear interpolation
between order statistics** -- the nearest-rank ``int(q * len)`` it
replaces over-indexed toward the low side for small windows (with 4
samples it called index 3 the p95 *and* the p50's neighbour, biasing
p50 low and leaving p95 = p99 = max always).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections import deque
from typing import Callable

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")

_QUANTILES = (0.50, 0.95, 0.99)

#: Default exemplar bucket bounds (seconds) for latency histograms --
#: roughly log-spaced from half a millisecond to ten seconds, plus the
#: implicit ``+Inf`` bucket.
DEFAULT_LATENCY_BOUNDS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing count (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        """Jump to *value* (collector use: mirroring an externally
        maintained count).  Refuses to go backwards."""
        with self._lock:
            if value < self._value:
                raise ValueError(
                    f"counters only go up: {value} < {self._value}"
                )
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bounded-reservoir histogram with interpolated quantiles.

    Keeps the most recent *window* observations (a serving process runs
    indefinitely; an unbounded list would not) and reports quantiles
    over that window plus lifetime count/sum.  Callers hold their own
    lock around :meth:`record` -- the class itself synchronizes only
    enough for a concurrent snapshot reader to see a consistent window.

    **Exemplars.**  With *exemplar_bounds* set (ascending upper bounds;
    an implicit ``+Inf`` bucket closes the list), the histogram also
    keeps lifetime per-bucket counts and a small per-bucket reservoir
    of ``(value, trace_id)`` pairs handed to :meth:`record` -- so a p99
    latency bucket links straight to the trace that produced it.  The
    Prometheus exposition then renders the classic ``_bucket`` series
    with OpenMetrics exemplar suffixes instead of a summary.
    """

    def __init__(
        self,
        window: int = 2048,
        *,
        exemplar_bounds: tuple[float, ...] | None = None,
        exemplar_reservoir: int = 2,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._values: deque[float] = deque(maxlen=window)
        self.count = 0
        self.total = 0.0
        self.exemplar_bounds: tuple[float, ...] | None = None
        if exemplar_bounds is not None:
            bounds = tuple(float(b) for b in exemplar_bounds)
            if not bounds or any(
                b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
            ):
                raise ValueError(
                    "exemplar_bounds must be non-empty and ascending, "
                    f"got {exemplar_bounds!r}"
                )
            if exemplar_reservoir <= 0:
                raise ValueError(
                    "exemplar_reservoir must be positive, got "
                    f"{exemplar_reservoir}"
                )
            self.exemplar_bounds = bounds
            self._bucket_counts = [0] * (len(bounds) + 1)
            self._exemplar_cells: list[deque] = [
                deque(maxlen=exemplar_reservoir)
                for _ in range(len(bounds) + 1)
            ]

    def record(self, value: float, trace_id: str | None = None) -> None:
        value = float(value)
        self._values.append(value)
        self.count += 1
        self.total += value
        bounds = self.exemplar_bounds
        if bounds is not None:
            idx = bisect_left(bounds, value)
            self._bucket_counts[idx] += 1
            if trace_id is not None:
                self._exemplar_cells[idx].append((value, trace_id))

    def bucket_counts(self) -> list[tuple[str, int]]:
        """Cumulative lifetime counts per exemplar bucket as
        ``[(le, count), ...]`` ending at ``("+Inf", lifetime count)``.
        Empty when exemplar buckets are not configured."""
        bounds = self.exemplar_bounds
        if bounds is None:
            return []
        out: list[tuple[str, int]] = []
        running = 0
        for bound, n in zip(bounds, self._bucket_counts):
            running += n
            out.append((f"{bound:g}", running))
        out.append(("+Inf", running + self._bucket_counts[-1]))
        return out

    def exemplars(self) -> list[dict]:
        """Latest retained exemplar per bucket:
        ``[{"le", "value", "trace_id"}, ...]`` (empty without exemplar
        buckets or before any traced observation)."""
        bounds = self.exemplar_bounds
        if bounds is None:
            return []
        out = []
        les = [f"{b:g}" for b in bounds] + ["+Inf"]
        for le, cell in zip(les, self._exemplar_cells):
            if cell:
                value, trace_id = cell[-1]
                out.append({"le": le, "value": value, "trace_id": trace_id})
        return out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The *q*-quantile of the retained window (0 when empty).

        Linear interpolation between order statistics (the default
        numpy/R-7 definition): position ``q * (k - 1)`` over the ``k``
        sorted retained values, interpolating between the two
        bracketing samples.  The previous nearest-rank form
        ``ordered[int(q * k)]`` systematically over-indexed for small
        windows -- e.g. 4 samples put p50 at the 3rd value instead of
        between the 2nd and 3rd.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        ordered = sorted(self._values)
        if not ordered:
            return 0.0
        position = q * (len(ordered) - 1)
        lo = math.floor(position)
        hi = math.ceil(position)
        if lo == hi:
            return ordered[lo]
        frac = position - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


_Instrument = Counter | Gauge | Histogram
_TYPE_NAMES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


def _check_labels(labels: dict) -> tuple[tuple[str, str], ...]:
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


def _escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _render_labels(labelset, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{k}="{_escape(v)}"' for k, v in (*labelset, *extra)]
    return "{" + ",".join(pairs) + "}" if pairs else ""


class MetricsRegistry:
    """Name+labelset-keyed home of every instrument in the process.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    twice with the same name and labels returns the same instrument, so
    publishers need no registration ceremony.  A name is one metric
    *family*; label sets distinguish series within it (Prometheus data
    model).  Registering the same name as two different instrument
    types is an error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # family name -> {"type": cls, "help": str,
        #                 "series": {labelset: instrument}}
        self._families: dict[str, dict] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        self._collect_lock = threading.Lock()

    # -- registration --------------------------------------------------
    def _get(
        self, cls, name: str, help: str, labels: dict, factory=None
    ) -> _Instrument:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelset = _check_labels(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = {"type": cls, "help": help, "series": {}}
                self._families[name] = family
            elif family["type"] is not cls:
                raise ValueError(
                    f"metric {name!r} is a "
                    f"{_TYPE_NAMES[family['type']]}, not a "
                    f"{_TYPE_NAMES[cls]}"
                )
            if help and not family["help"]:
                family["help"] = help
            instrument = family["series"].get(labelset)
            if instrument is None:
                instrument = (factory or cls)()
                family["series"][labelset] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        window: int = 2048,
        exemplar_bounds: tuple[float, ...] | None = None,
        **labels,
    ) -> Histogram:
        # Sizing and exemplar buckets apply on first creation only;
        # later get-or-create calls return the existing series as-is.
        factory = lambda: Histogram(  # noqa: E731
            window, exemplar_bounds=exemplar_bounds
        )
        return self._get(Histogram, name, help, labels, factory)

    def register_histogram(
        self, name: str, hist: Histogram, help: str = "", **labels
    ) -> Histogram:
        """Adopt an externally owned :class:`Histogram` as a series.

        The push-style integration: the serving telemetry keeps
        recording into its own histogram under its own lock, and the
        registry exports it live -- no copying, no double counting.
        Re-registering the same series replaces the instrument (a
        hot-swapped model's fresh telemetry takes over the series).
        """
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelset = _check_labels(labels)
        with self._lock:
            family = self._families.setdefault(
                name, {"type": Histogram, "help": help, "series": {}}
            )
            if family["type"] is not Histogram:
                raise ValueError(f"metric {name!r} is not a histogram")
            family["series"][labelset] = hist
        return hist

    def prune(self, **labels) -> int:
        """Drop every series whose labels include all given items.

        Runtime teardown (hot-swap, eviction, server stop) prunes its
        model's series so a scrape never reports a model that no longer
        serves.  Returns the number of series removed.
        """
        match = set(_check_labels(labels))
        removed = 0
        with self._lock:
            for family in self._families.values():
                stale = [
                    ls for ls in family["series"] if match <= set(ls)
                ]
                for ls in stale:
                    del family["series"][ls]
                removed += len(stale)
        return removed

    # -- collectors ----------------------------------------------------
    def register_collector(
        self, fn: Callable[["MetricsRegistry"], None]
    ) -> Callable[["MetricsRegistry"], None]:
        """Add a pull-style publisher run at every :meth:`collect`.

        *fn* receives the registry and copies its subsystem's counters
        in (``registry.gauge(...).set(...)``).  Returns *fn* so it can
        be used as a decorator; pass the same object to
        :meth:`unregister_collector` to remove it.
        """
        with self._lock:
            self._collectors.append(fn)
        return fn

    def unregister_collector(self, fn) -> None:
        with self._lock:
            try:
                self._collectors.remove(fn)
            except ValueError:
                pass

    def collect(self) -> None:
        """Run every registered collector (scrape preamble).

        Serialized: concurrent scrapes run the collectors once each,
        never interleaved.  A collector that raises is skipped (a
        broken subsystem must not take ``/metrics`` down with it); its
        error is counted on ``repro_obs_collector_errors_total``.
        """
        with self._lock:
            collectors = list(self._collectors)
        with self._collect_lock:
            for fn in collectors:
                try:
                    fn(self)
                except Exception:  # noqa: BLE001 -- scrape must survive
                    self.counter(
                        "repro_obs_collector_errors_total",
                        "collectors that raised during a scrape",
                    ).inc()

    # -- exporting -----------------------------------------------------
    def _snapshot(self):
        with self._lock:
            return [
                (
                    name,
                    family["type"],
                    family["help"],
                    list(family["series"].items()),
                )
                for name, family in sorted(self._families.items())
            ]

    def to_json(self) -> dict:
        """``{name: {"type", "help", "series": [{"labels", ...}]}}``.

        Histograms expand to their snapshot (count/mean/p50/p95/p99).
        Runs the collectors first.
        """
        self.collect()
        out: dict[str, dict] = {}
        for name, cls, help_text, series in self._snapshot():
            rendered = []
            for labelset, instrument in series:
                entry: dict = {"labels": dict(labelset)}
                if cls is Histogram:
                    entry.update(instrument.snapshot())
                    exemplars = instrument.exemplars()
                    if exemplars:
                        entry["exemplars"] = exemplars
                else:
                    entry["value"] = instrument.value
                rendered.append(entry)
            out[name] = {
                "type": _TYPE_NAMES[cls],
                "help": help_text,
                "series": rendered,
            }
        return out

    def to_prometheus(self) -> str:
        """Text exposition format (0.0.4).  Runs the collectors first.

        Histograms without exemplar buckets render as Prometheus
        *summaries*: ``{quantile="x"}`` series over the retained window
        plus lifetime ``_sum`` / ``_count``.  Exemplar-enabled
        histograms render as classic *histograms* -- cumulative
        ``_bucket{le="..."}`` series carrying OpenMetrics exemplar
        suffixes (``... count # {trace_id="..."} value``) where a traced
        observation landed in the bucket -- so a scrape links latency
        buckets to trace ids.
        """
        self.collect()
        lines: list[str] = []
        for name, cls, help_text, series in self._snapshot():
            exemplar_style = cls is Histogram and any(
                instrument.exemplar_bounds is not None
                for _, instrument in series
            )
            if cls is Histogram:
                kind = "histogram" if exemplar_style else "summary"
            else:
                kind = _TYPE_NAMES[cls]
            if help_text:
                lines.append(f"# HELP {name} {_escape(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            for labelset, instrument in series:
                if cls is not Histogram:
                    labels = _render_labels(labelset)
                    lines.append(f"{name}{labels} {instrument.value:g}")
                    continue
                if exemplar_style:
                    exemplars = {
                        e["le"]: e for e in instrument.exemplars()
                    }
                    for le, cum in instrument.bucket_counts():
                        labels = _render_labels(labelset, (("le", le),))
                        line = f"{name}_bucket{labels} {cum:g}"
                        mark = exemplars.get(le)
                        if mark is not None:
                            line += (
                                f' # {{trace_id="{_escape(mark["trace_id"])}"'
                                f'}} {mark["value"]:g}'
                            )
                        lines.append(line)
                else:
                    for q in _QUANTILES:
                        value = instrument.quantile(q)
                        labels = _render_labels(
                            labelset, (("quantile", f"{q:g}"),)
                        )
                        lines.append(f"{name}{labels} {value:g}")
                labels = _render_labels(labelset)
                lines.append(f"{name}_sum{labels} {instrument.total:g}")
                lines.append(
                    f"{name}_count{labels} {instrument.count:g}"
                )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the default (process-wide) registry
# ----------------------------------------------------------------------
def _default_collectors(registry: MetricsRegistry) -> None:
    """Wire the process-wide pull publishers into a fresh registry.

    Imports are deferred to scrape time so the observability package
    stays importable (and cheap) without the engine stack.
    """

    def plan_cache(reg: MetricsRegistry) -> None:
        from repro.engine.dispatch import plan_cache_stats

        stats = plan_cache_stats()
        reg.gauge(
            "repro_plan_cache_size", "memoized backend plans"
        ).set(stats["size"])
        reg.counter(
            "repro_plan_cache_hits_total", "plan cache hits"
        ).set(stats["hits"])
        reg.counter(
            "repro_plan_cache_misses_total", "plan cache misses"
        ).set(stats["misses"])

    def engine_builds(reg: MetricsRegistry) -> None:
        from repro.engine.registry import engine_build_counts

        for backend, count in engine_build_counts().items():
            reg.counter(
                "repro_engine_builds_total",
                "engines compiled, by backend",
                backend=backend,
            ).set(count)

    def workspaces(reg: MetricsRegistry) -> None:
        from repro.core.workspace import aggregate_stats

        stats = aggregate_stats()
        reg.gauge(
            "repro_workspace_arenas",
            "live KV-cache and engine workspace arenas",
        ).set(stats["arenas"])
        reg.gauge(
            "repro_workspace_bytes_resident",
            "bytes held by live KV-cache and engine arenas",
        ).set(stats["bytes_resident"])
        reg.counter(
            "repro_workspace_hits_total",
            "KV-cache and engine arena buffer reuses",
        ).set(stats["hits"])
        reg.counter(
            "repro_workspace_misses_total",
            "KV-cache and engine arena buffer allocations",
        ).set(stats["misses"])

    def tracing(reg: MetricsRegistry) -> None:
        from repro.obs import runtime as rt
        from repro.obs.trace import get_tracer

        stats = get_tracer().stats()
        reg.gauge(
            "repro_trace_enabled", "1 when span recording is on"
        ).set(1.0 if rt.TRACING else 0.0)
        reg.counter(
            "repro_trace_spans_recorded_total", "finished spans"
        ).set(stats["recorded"])
        reg.counter(
            "repro_trace_spans_dropped_total",
            "spans evicted from the ring buffer",
        ).set(stats["dropped"])

    def drift(reg: MetricsRegistry) -> None:
        from repro.obs import runtime as rt
        from repro.obs.drift import get_recorder

        reg.gauge(
            "repro_drift_enabled", "1 when drift telemetry is on"
        ).set(1.0 if rt.DRIFT else 0.0)
        reg.gauge(
            "repro_drift_keys",
            "(engine, shape-bucket) keys with drift data",
        ).set(len(get_recorder()))

    def native_kernel(reg: MetricsRegistry) -> None:
        from repro.engine.native import status

        reg.gauge(
            "repro_native_kernel_loaded",
            "1 when the compiled engine's native LUT query kernel is "
            "loaded in this process",
        ).set(1.0 if status()["loaded"] else 0.0)

    for fn in (
        plan_cache, engine_builds, workspaces, tracing, drift, native_kernel
    ):
        registry.register_collector(fn)


_DEFAULT: MetricsRegistry | None = None
_DEFAULT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (created on first use), with
    the plan-cache / engine-build / workspace / tracing / drift /
    native-kernel collectors pre-wired."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                registry = MetricsRegistry()
                _default_collectors(registry)
                _DEFAULT = registry
    return _DEFAULT
