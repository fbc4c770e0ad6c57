"""repro.obs -- cross-layer observability for the reproduction.

Three coordinated pieces, all disabled by default and free when off:

- :mod:`repro.obs.trace` -- structured request tracing.  Spans with
  monotonic timestamps, parent links and thread-local context
  propagation cover the full request lifecycle (``serve.admit`` ->
  ``serve.queue`` -> ``serve.batch`` -> ``worker.execute`` -> per-layer
  ``engine.matmul``), exported as ``chrome://tracing`` trace-event
  JSON.  A traced layer runs the same engine call as an untraced one;
  the Fig. 8 build/query/replace split is measured offline on the numpy
  kernel (:class:`~repro.core.profiling.PhaseProfiler`).
- :mod:`repro.obs.metrics` -- one process-wide registry of counters,
  gauges and histograms that serve, engine builds, workspace arenas
  and the batcher publish into; exported as JSON and
  Prometheus text exposition.
- :mod:`repro.obs.drift` -- cost-model drift telemetry: the planner's
  predicted seconds recorded next to measured wall time per
  (engine, shape-bucket); ``python -m repro.obs report`` ranks the
  shapes where the planner's ranking disagrees with reality.

v2 closes the loop with two more pieces:

- :mod:`repro.obs.slo` -- declarative :class:`~repro.obs.slo.SLOSpec`
  objectives evaluated by multi-window burn rate with an
  ``ok -> warn -> page`` state machine; the serving layer sheds new
  admissions while a spec pages and reports ``warn`` without acting.
- :mod:`repro.obs.profile` -- a wall-clock sampling profiler (folded
  stacks for speedscope/flamegraph) that attributes samples to active
  spans, so uninstrumented time shows up next to engine time.

Typical use::

    import repro.obs as obs

    obs.enable(profile=True)        # tracing + drift + profiler
    ... serve traffic ...
    obs.get_tracer().save("trace.json")       # open in chrome://tracing
    print(obs.get_registry().to_prometheus())
    obs.get_recorder().save("drift.json")     # python -m repro.obs report
    print(obs.get_profiler().folded())        # paste into speedscope

Setting ``REPRO_OBS=1`` (or a comma list of ``trace``, ``drift``,
``profile``) in the environment enables the corresponding pieces at
import time -- handy for instrumenting an existing entry point without
code changes.  SLOs need specs, so they are wired explicitly (see
``ServeConfig.slos``), never from the environment.
"""

from __future__ import annotations

import os

from repro.obs import runtime  # noqa: F401  (dependency leaf, import first)
from repro.obs.drift import (
    DriftRecorder,
    get_recorder,
    record_measurement,
    record_prediction,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import (
    Span,
    SpanContext,
    Tracer,
    current_context,
    get_tracer,
    new_trace_id,
    span,
)
from repro.obs.profile import SamplingProfiler, get_profiler
from repro.obs.slo import SLOEngine, SLOSpec
from repro.obs import drift as _drift
from repro.obs import profile as _profile
from repro.obs import trace as _trace

__all__ = [
    "Counter",
    "DriftRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLOEngine",
    "SLOSpec",
    "SamplingProfiler",
    "Span",
    "SpanContext",
    "Tracer",
    "current_context",
    "disable",
    "enable",
    "get_profiler",
    "get_recorder",
    "get_registry",
    "get_tracer",
    "new_trace_id",
    "record_measurement",
    "record_prediction",
    "span",
]


def enable(
    tracing: bool = True,
    drift: bool = True,
    *,
    profile: bool = False,
    profile_hz: float | None = None,
    max_spans: int | None = None,
    clear: bool = False,
) -> None:
    """Turn observability on: ``tracing`` / ``drift`` / ``profile``
    select the pieces.

    ``max_spans`` resizes the tracer's ring buffer; ``clear=True``
    empties retained spans (and, with ``drift``, recorded drift
    entries; with ``profile``, folded stacks) first.  ``profile_hz``
    sets the sampler rate (default 97 Hz).  SLOs carry specs, so they
    are enabled where the specs live (``repro.obs.slo.set_engine`` --
    the server does this from ``ServeConfig.slos``), not here.
    """
    if tracing:
        _trace.enable(max_spans=max_spans, clear=clear)
    if drift:
        _drift.enable(reset=clear)
    if profile:
        _profile.start(
            profile_hz if profile_hz is not None else _profile.DEFAULT_HZ,
            clear=clear,
        )


def disable() -> None:
    """Turn all observability off (recorded data stays exportable).

    The SLO engine is owned by whoever installed it (the server clears
    it on stop), so it is deliberately not touched here.
    """
    _trace.disable()
    _drift.disable()
    _profile.stop()


def _from_env() -> None:
    value = os.environ.get("REPRO_OBS", "").strip().lower()
    if not value or value in ("0", "off", "false"):
        return
    if value in ("1", "on", "true", "all"):
        enable(profile=value == "all")
        return
    pieces = {piece.strip() for piece in value.split(",")}
    enable(tracing="trace" in pieces or "tracing" in pieces,
           drift="drift" in pieces,
           profile="profile" in pieces or "profiling" in pieces)


_from_env()
