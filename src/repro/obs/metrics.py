"""Unified metrics registry: counters, gauges, histograms, exporters.

One registry for the whole process: serving, engine builds, workspace
arenas and tracing all publish here, so a single scrape answers "where
do time, memory and mispredictions go".  Two publishing styles:

- **instruments**: a serving component (a model's batcher, its decode
  scheduler, its cluster pool) builds a :class:`MetricSet` -- its own
  :class:`Counter`, :class:`Gauge` and :class:`Histogram` objects,
  created once -- and records into them directly on the hot path.
  :meth:`MetricSet.publish` installs those same objects in the
  registry under a ``model`` label, so the JSON ``/metrics`` body (read
  from the component) and the Prometheus text (read from the registry)
  are two renderings of one set of numbers.  A gauge may be backed by
  a function (a queue's depth, a ratio of two counters), read at
  scrape time.
- **pull**: subsystems whose numbers live elsewhere (workspace arenas,
  engine builds, the model store) register a **collector** callback
  that copies them into the registry at scrape time.

Exporters: :meth:`MetricsRegistry.to_json` and
:meth:`MetricsRegistry.to_prometheus` (text exposition format, version
0.0.4 -- what ``/metrics?format=prometheus`` serves).

:class:`Histogram` is a bounded-window reservoir whose quantiles use
**linear interpolation between order statistics** -- nearest-rank
``int(q * len)`` over-indexes toward the low side for small windows
(with 4 samples it calls index 3 the p95 *and* the p50's neighbour,
biasing p50 low and leaving p95 = p99 = max always).
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
    "MetricSet",
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
    """Monotonically increasing count (thread-safe).  Stays an ``int``
    while only integers are added."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: float = 1) -> None:
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
    """A value that goes up and down (thread-safe).

    With *fn*, the gauge is read-only: :attr:`value` calls ``fn()``
    (a queue depth, a ratio of two counters), so nothing has to keep
    it up to date.
    """

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, fn: Callable[[], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn = fn

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
        if self._fn is not None:
            return self._fn()
        with self._lock:
            return self._value


class Histogram:
    """Bounded-reservoir histogram with interpolated quantiles.

    Keeps the most recent *window* observations (a serving process runs
    indefinitely; an unbounded list would not) and reports quantiles
    over that window plus lifetime count/sum.  Thread-safe: recording
    and reading take the histogram's own lock.

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
        self._lock = threading.Lock()
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
        bounds = self.exemplar_bounds
        with self._lock:
            self._values.append(value)
            self.count += 1
            self.total += value
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
        with self._lock:
            counts = list(self._bucket_counts)
        out: list[tuple[str, int]] = []
        running = 0
        for bound, n in zip(bounds, counts):
            running += n
            out.append((f"{bound:g}", running))
        out.append(("+Inf", running + counts[-1]))
        return out

    def exemplars(self) -> list[dict]:
        """Latest retained exemplar per bucket:
        ``[{"le", "value", "trace_id"}, ...]`` (empty without exemplar
        buckets or before any traced observation)."""
        bounds = self.exemplar_bounds
        if bounds is None:
            return []
        with self._lock:
            latest = [c[-1] if c else None for c in self._exemplar_cells]
        les = [f"{b:g}" for b in bounds] + ["+Inf"]
        return [
            {"le": le, "value": mark[0], "trace_id": mark[1]}
            for le, mark in zip(les, latest)
            if mark is not None
        ]

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
        with self._lock:
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

    def snapshot(self, scale: float = 1.0) -> dict:
        """Count, mean and p50/p95/p99, the last four times *scale*
        (``1e3`` reports seconds as milliseconds)."""
        return {
            "count": self.count,
            "mean": self.mean * scale,
            "p50": self.quantile(0.50) * scale,
            "p95": self.quantile(0.95) * scale,
            "p99": self.quantile(0.99) * scale,
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
        # (name, labelset) -> instruments a later register() displaced,
        # oldest first (see register / unregister).
        self._shadowed: dict[tuple, list[_Instrument]] = {}

    # -- registration --------------------------------------------------
    def _series(self, cls, name: str, help: str, labels: dict):
        """``(series dict, labelset)`` of family *name*, created as a
        *cls* family if new.  Caller holds ``self._lock``."""
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelset = _check_labels(labels)
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
        return family["series"], labelset

    def _get(
        self, cls, name: str, help: str, labels: dict, factory=None
    ) -> _Instrument:
        with self._lock:
            series, labelset = self._series(cls, name, help, labels)
            instrument = series.get(labelset)
            if instrument is None:
                instrument = series[labelset] = (factory or cls)()
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

    def register(
        self, name: str, instrument: _Instrument, help: str = "", **labels
    ) -> _Instrument:
        """Adopt an externally owned instrument as the series
        (*name*, *labels*).

        The registry exports the object live -- no copying.  It takes
        over the name and labels from any instrument already there (a
        hot-swapped model's fresh instruments start the scrape at
        zero); the displaced one is kept aside and returns if
        *instrument* is unregistered first (two servers in one process
        serving one model name).
        """
        with self._lock:
            series, labelset = self._series(
                type(instrument), name, help, labels
            )
            current = series.get(labelset)
            if current is not None and current is not instrument:
                self._shadowed.setdefault((name, labelset), []).append(
                    current
                )
            series[labelset] = instrument
        return instrument

    def unregister(self, *instruments: _Instrument) -> None:
        """Remove these objects (by identity, not labels).  A series
        one of them holds goes back to the instrument it displaced, if
        any, or leaves the scrape; a series another owner has since
        taken over stays."""
        ids = {id(instrument) for instrument in instruments}
        with self._lock:
            for stack in self._shadowed.values():
                stack[:] = [i for i in stack if id(i) not in ids]
            for name, family in self._families.items():
                series = family["series"]
                for labelset, inst in list(series.items()):
                    if id(inst) not in ids:
                        continue
                    stack = self._shadowed.get((name, labelset))
                    if stack:
                        series[labelset] = stack.pop()
                    else:
                        del series[labelset]
            self._shadowed = {k: s for k, s in self._shadowed.items() if s}

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


class MetricSet:
    """The instruments one component records into, and their families.

    A subclass creates each instrument once, in ``__init__``, through
    :meth:`_family` (family name, help text, instrument) or
    :meth:`_counters`, and records into the attribute directly -- no
    registry lookup by name or label on the hot path.  :meth:`publish`
    installs those same objects in a registry under shared labels;
    :meth:`retract` removes them again by identity, so a successor that
    published under the same labels (a hot-swapped model) keeps its
    series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()  # guards subclasses' size tallies
        self._families: list[tuple[str, str, _Instrument]] = []

    def _family(self, name: str, help: str, instrument):
        self._families.append((name, help, instrument))
        return instrument

    def _counters(self, prefix: str, counts) -> None:
        """A :class:`Counter` attribute per ``(name, help)`` in
        *counts*, exported as ``<prefix><name>_total``."""
        for name, help_text in counts:
            counter = Counter()
            self._family(f"{prefix}{name}_total", help_text, counter)
            setattr(self, name, counter)

    def _values(self, counts) -> dict:
        return {name: getattr(self, name).value for name, _ in counts}

    def _count_size(self, sizes: dict[int, int], size: int) -> None:
        with self._lock:
            sizes[size] = sizes.get(size, 0) + 1

    def _sizes(self, sizes: dict[int, int]) -> dict[int, int]:
        with self._lock:
            return dict(sorted(sizes.items()))

    def publish(self, registry: MetricsRegistry, **labels) -> None:
        for name, help_text, instrument in self._families:
            registry.register(name, instrument, help_text, **labels)

    def retract(self, registry: MetricsRegistry) -> None:
        registry.unregister(*(inst for _, _, inst in self._families))


# ----------------------------------------------------------------------
# the default (process-wide) registry
# ----------------------------------------------------------------------
def _default_collectors(registry: MetricsRegistry) -> None:
    """Wire the process-wide pull publishers into a fresh registry.

    Imports are deferred to scrape time so the observability package
    stays importable (and cheap) without the engine stack.
    """

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
            "live KV-cache workspace arenas",
        ).set(stats["arenas"])
        reg.gauge(
            "repro_workspace_bytes_resident",
            "bytes held by live KV-cache arenas",
        ).set(stats["bytes_resident"])
        reg.counter(
            "repro_workspace_hits_total",
            "KV-cache arena buffer reuses",
        ).set(stats["hits"])
        reg.counter(
            "repro_workspace_misses_total",
            "KV-cache arena buffer allocations",
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

    for fn in (engine_builds, workspaces, tracing, drift, native_kernel):
        registry.register_collector(fn)


_DEFAULT: MetricsRegistry | None = None
_DEFAULT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (created on first use), with
    the engine-build / workspace / tracing / drift / native-kernel
    collectors pre-wired."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                registry = MetricsRegistry()
                _default_collectors(registry)
                _DEFAULT = registry
    return _DEFAULT
