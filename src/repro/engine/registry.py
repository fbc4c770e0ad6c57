"""String-keyed registry of matmul engines.

Every serving backend registers here exactly once -- ``dense`` and
``int8`` in :mod:`repro.engine.adapters`, ``biqgemm`` (the paper's LUT
kernel, run natively) in :mod:`repro.engine.compiled` -- carrying:

- a **build** function compiling an engine from an
  :class:`~repro.engine.base.EngineBuildRequest`;
- a **cost** function pricing one ``(m, n) @ (n, b)`` multiply on a
  :class:`~repro.hw.machine.MachineConfig` via the roofline model in
  :mod:`repro.hw.costmodel` -- the signal the dispatch planner ranks
  candidates by;
- a **lossless** flag: whether the engine computes the exact BCQ
  product (Eq. 2).  ``backend="auto"`` only considers lossless engines,
  so the planner never silently trades accuracy for speed (``int8``
  quantizes activations and must be chosen explicitly);
- optional **export/restore** hooks used by
  :mod:`repro.core.serialize` to round-trip compiled engines.

Backend names that older artifacts may carry but that no engine is
registered under any more map onto their current name in one table,
and every loader goes through :func:`current_backend`.  Naming a
legacy backend in a new spec is an error that names its replacement
(:func:`check_not_legacy`).

The registry is the extension seam for future backends: registering a
new entry makes it buildable through :class:`~repro.nn.linear.QuantLinear`,
plannable through :func:`repro.engine.dispatch.plan_backend`, coverable
by the cross-backend parity tests, and serializable -- with no changes
to the nn layer.  The paper's sGEMM, unpack-then-GEMM and XNOR kernels
(:mod:`repro.gemm`) are deliberately *not* registered: they are
paper-bench baselines, not serving engines.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.engine.base import EngineBuildRequest, MatmulEngine, QuantSpec
from repro.hw.costmodel import CostEstimate, estimate_backend
from repro.hw.machine import MachineConfig

__all__ = [
    "EngineEntry",
    "build_engine",
    "check_not_legacy",
    "current_backend",
    "engine_build_counts",
    "engine_entry",
    "lossless_engines",
    "register_engine",
    "registered_engines",
    "roofline_cost",
]

CostFn = Callable[[MachineConfig, int, int, int, QuantSpec], CostEstimate]
BuildFn = Callable[[EngineBuildRequest], MatmulEngine]
ExportFn = Callable[[MatmulEngine], dict[str, Any]]
RestoreFn = Callable[[Mapping[str, Any]], MatmulEngine]

# Backend names saved artifacts may carry, mapped to the engine that
# serves them now.  The native LUT engine was registered as "compiled"
# beside a numpy "biqgemm" engine; it took over the paper's name when
# the numpy registration was removed.
_LEGACY_BACKENDS = {"compiled": "biqgemm"}


def current_backend(name: str) -> str:
    """*name*, with a legacy backend name mapped to its current one.

    For loaders of saved state only; new specs must use current names
    (:func:`check_not_legacy`).
    """
    return _LEGACY_BACKENDS.get(name, name)


def check_not_legacy(name: str) -> None:
    """Raise ``ValueError`` naming the replacement of a legacy backend."""
    new = _LEGACY_BACKENDS.get(name)
    if new is not None:
        raise ValueError(
            f"backend {name!r} is now called {new!r}; use backend={new!r}"
        )


def roofline_cost(backend: str) -> CostFn:
    """The registry cost function pricing *backend* with
    :func:`repro.hw.costmodel.estimate_backend`."""

    def cost(machine, m: int, n: int, b: int, spec: QuantSpec):
        return estimate_backend(
            backend, machine, m, n, b, bits=spec.bits, mu=spec.mu,
            fuse=spec.fuse,
        )

    return cost


@dataclass(frozen=True)
class EngineEntry:
    """One registered backend.

    Attributes
    ----------
    name:
        Registry key, the value a :class:`~repro.engine.base.QuantSpec`
        selects with ``backend=name``.
    build:
        Factory compiling a :class:`~repro.engine.base.MatmulEngine`.
    cost:
        Roofline estimate for the dispatch planner; ``None`` opts the
        engine out of cost-model planning (it can still be built and
        autotuned).
    lossless:
        True when the engine reproduces the exact BCQ product; only
        lossless engines are ``"auto"`` candidates.
    needs_weight:
        True when ``build`` requires the original float weight (via
        :meth:`~repro.engine.base.EngineBuildRequest.get_weight`)
        rather than building from the shared BCQ state.  Layers use
        this to drop the float weight after quantization whenever no
        reachable backend needs it (the paper's deployment model).
    description:
        One line for docs and error messages.
    export / restore:
        Serialization hooks (arrays/ints only) for
        :mod:`repro.core.serialize`; ``None`` disables round-tripping.
    """

    name: str
    build: BuildFn
    cost: CostFn | None = None
    lossless: bool = True
    needs_weight: bool = False
    description: str = ""
    export: ExportFn | None = None
    restore: RestoreFn | None = None


_REGISTRY: dict[str, EngineEntry] = {}


def register_engine(entry: EngineEntry) -> EngineEntry:
    """Add *entry* to the registry; duplicate names are an error."""
    if not isinstance(entry, EngineEntry):
        raise TypeError(f"expected an EngineEntry, got {type(entry).__name__}")
    if entry.name in _REGISTRY:
        raise ValueError(f"backend {entry.name!r} is already registered")
    _REGISTRY[entry.name] = entry
    return entry


def engine_entry(name: str) -> EngineEntry:
    """Look up one registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered engines: "
            f"{sorted(_REGISTRY)}"
        ) from None


def registered_engines() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def lossless_engines() -> tuple[str, ...]:
    """Backends computing the exact BCQ product (the ``auto`` candidates)."""
    return tuple(sorted(name for name, e in _REGISTRY.items() if e.lossless))


# Engine compiles are rare, heavy, offline-ish events (the paper's
# deployment model builds once and serves forever), so unlike the
# per-call hot paths they are always counted -- the metrics registry's
# default collector publishes these as repro_engine_builds_total.
_BUILD_COUNTS: dict[str, int] = {}
_BUILD_COUNTS_LOCK = threading.Lock()


def engine_build_counts() -> dict[str, int]:
    """Lifetime :func:`build_engine` calls per backend."""
    with _BUILD_COUNTS_LOCK:
        return dict(_BUILD_COUNTS)


def build_engine(name: str, request: EngineBuildRequest) -> MatmulEngine:
    """Compile the backend *name* for *request*."""
    entry = engine_entry(name)
    from repro.obs import runtime as _rt

    if _rt.TRACING:
        from repro.obs.trace import span

        m, n = request.shape
        with span("engine.build", backend=name, m=m, n=n):
            engine = entry.build(request)
    else:
        engine = entry.build(request)
    with _BUILD_COUNTS_LOCK:
        _BUILD_COUNTS[name] = _BUILD_COUNTS.get(name, 0) + 1
    return engine
