"""Process-wide observability switches (the hot-path fast flags).

Everything in :mod:`repro.obs` is disabled by default and must stay
invisible to the steady-state hot loop when it is off -- the serving
layers guard their instrumentation behind the module-level booleans
here, so the disabled path costs one attribute read per call site and
allocates nothing.  :func:`repro.obs.enable` / :func:`repro.obs.disable`
flip these flags; nothing else should write them.

This module is a dependency leaf (stdlib only, imports nothing from the
repo), so any layer -- kernels, engines, serving -- can read the flags
without import cycles.
"""

from __future__ import annotations

__all__ = [
    "ACTIVE",
    "DRIFT",
    "PROFILING",
    "SLO",
    "TRACING",
    "set_drift",
    "set_profiling",
    "set_slo",
    "set_tracing",
]

#: Structured tracing on/off (spans recorded when True).
TRACING = False

#: Cost-model drift telemetry on/off (matmul wall time recorded when
#: True).
DRIFT = False

#: SLO engine on/off (request outcomes fed to burn-rate windows when
#: True; serving layers also consult the paging state).
SLO = False

#: Sampling profiler on/off (a sampler thread is walking
#: ``sys._current_frames()`` when True).  Hot paths never check this --
#: the profiler observes them from outside -- but exposition endpoints
#: and CLIs do.
PROFILING = False

#: Tracing or drift: the single check hot call sites make before
#: touching any per-matmul observability machinery.  (SLO and the
#: profiler have their own flags: SLO guards a per-*request* feed, and
#: profiling costs the hot path nothing.)
ACTIVE = False


def _refresh() -> None:
    global ACTIVE
    ACTIVE = TRACING or DRIFT


def set_tracing(on: bool) -> None:
    """Flip the tracing flag (called by :func:`repro.obs.trace.enable`)."""
    global TRACING
    TRACING = bool(on)
    _refresh()


def set_drift(on: bool) -> None:
    """Flip the drift flag (called by :func:`repro.obs.drift.enable`)."""
    global DRIFT
    DRIFT = bool(on)
    _refresh()


def set_slo(on: bool) -> None:
    """Flip the SLO flag (called by :func:`repro.obs.slo.enable`)."""
    global SLO
    SLO = bool(on)


def set_profiling(on: bool) -> None:
    """Flip the profiling flag (called by
    :class:`repro.obs.profile.SamplingProfiler`)."""
    global PROFILING
    PROFILING = bool(on)
