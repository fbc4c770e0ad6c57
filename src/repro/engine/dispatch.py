"""Cost-model-driven backend planning (the paper's Section V lesson).

No single engine wins everywhere: BiQGEMM dominates the small-batch
GEMV-like regime the paper targets, a tuned BLAS overtakes it once the
batch amortizes the weight traffic (Fig. 10's crossovers), and the
exact crossover moves with bit width and machine.  This module turns
that observation into a planner:

:func:`plan_backend` / :func:`dispatch`
    Rank the lossless registered engines by their roofline cost on a
    :class:`~repro.hw.machine.MachineConfig` and return the cheapest --
    the resolver behind ``QuantSpec(backend="auto")``.
:func:`resolve_backend`
    The layer-facing entry point: passes concrete backend names
    through untouched and plans only for ``"auto"``, so layers carry
    no backend conditionals at all.
:func:`crossover_batch`
    The batch size at which the plan switches away from BiQGEMM -- the
    quantity Fig. 10 plots.

Plans are memoized in a process-wide cache keyed on
``(m, n, bits, mu, batch-bucket, machine, planner)``.  Batches are
bucketed to powers of two, so a serving loop whose batch jitters
between 17 and 32 hits one cache line instead of replanning per call;
repeated calls cost one dict lookup.

With ``planner="autotune"`` the ranking falls back to micro-benchmarks
of the real kernels on this host
(:func:`repro.core.autotune.empirical_backend`), for when the machine
being served is not one of the modelled Table III configs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro._util import check_positive_int
from repro.engine.base import AUTO_BACKEND, QuantSpec
from repro.engine.registry import engine_entry, lossless_engines
from repro.hw.costmodel import CostEstimate
from repro.hw.machine import MACHINES, MachineConfig

__all__ = [
    "batch_bucket",
    "batch_buckets",
    "clear_plan_cache",
    "crossover_batch",
    "dispatch",
    "plan_backend",
    "plan_cache_stats",
    "plan_costs",
    "resolve_backend",
    "validate_spec",
]


def validate_spec(spec: QuantSpec) -> QuantSpec:
    """Fail fast on spec fields the registry or planner would reject later.

    Layers and configs call this at construction so that a typo'd
    backend, machine, or planner surfaces immediately rather than on the
    first multiply.  Returns *spec* unchanged for call-chaining.
    """
    if spec.planner not in ("model", "autotune"):
        raise ValueError(
            f"planner must be 'model' or 'autotune', got {spec.planner!r}"
        )
    if spec.batch_hint is not None:
        check_positive_int(spec.batch_hint, "batch_hint")
    fuse = getattr(spec, "fuse", None)
    if fuse is not None:
        from repro.nn.functional import activation_fn

        activation_fn(fuse)  # raises on unknown activation names
    if spec.backend != AUTO_BACKEND:
        engine_entry(spec.backend)  # raises on unknown backend names
        return spec
    if spec.machine not in MACHINES:
        raise ValueError(
            f"unknown machine {spec.machine!r}; expected one of "
            f"{sorted(MACHINES)}"
        )
    return spec


def batch_bucket(batch: int) -> int:
    """Round *batch* up to the next power of two (the plan-cache key).

    Bucketing keeps the cache small and plans stable under the small
    batch jitter of a serving loop, at the price of planning for a
    batch at most 2x the true one -- well inside the cost model's
    accuracy.
    """
    check_positive_int(batch, "batch")
    return 1 << (batch - 1).bit_length()


def batch_buckets(max_batch: int = 1024) -> tuple[int, ...]:
    """All plan-cache bucket boundaries up to ``batch_bucket(max_batch)``.

    The serving layer coalesces micro-batches toward these targets
    (:class:`repro.serve.Batcher`): a batch released exactly at a bucket
    boundary shares its plan-cache line -- and its cost-model pricing --
    with every other batch in the bucket, so the batcher and the planner
    agree about which regime is being served.
    """
    check_positive_int(max_batch, "max_batch")
    top = batch_bucket(max_batch)
    return tuple(1 << i for i in range(top.bit_length()))


def _resolve_machine(machine: str | MachineConfig | None) -> MachineConfig:
    if machine is None:
        machine = "pc"
    if isinstance(machine, MachineConfig):
        return machine
    try:
        return MACHINES[machine]
    except KeyError:
        raise ValueError(
            f"unknown machine {machine!r}; expected one of {sorted(MACHINES)}"
        ) from None


@dataclass(frozen=True)
class _PlanKey:
    m: int
    n: int
    bits: int
    mu: int
    bucket: int
    # The full (frozen, hashable) machine config, not just its name:
    # custom or modified configs must never share a cache line with the
    # stock machine they were derived from.
    machine: MachineConfig
    planner: str
    candidates: tuple[str, ...]
    # A fused and an unfused plan for the same (m, n, bits) must never
    # share a cache line: the compiled engine's fusion credit changes
    # the cost ranking.
    fuse: str | None = None


_PLAN_CACHE: dict[_PlanKey, str] = {}
_CACHE_LOCK = threading.Lock()
_CACHE_STATS = {"hits": 0, "misses": 0}


def clear_plan_cache() -> None:
    """Drop all memoized plans (test hygiene / after re-registration)."""
    with _CACHE_LOCK:
        _PLAN_CACHE.clear()
        _CACHE_STATS["hits"] = 0
        _CACHE_STATS["misses"] = 0


def plan_cache_stats() -> dict[str, int]:
    """Cache observability: ``{"size", "hits", "misses"}``."""
    with _CACHE_LOCK:
        return {
            "size": len(_PLAN_CACHE),
            "hits": _CACHE_STATS["hits"],
            "misses": _CACHE_STATS["misses"],
        }


def plan_costs(
    m: int,
    n: int,
    *,
    spec: QuantSpec | None = None,
    batch_hint: int = 1,
    machine: str | MachineConfig | None = None,
    candidates: tuple[str, ...] | None = None,
) -> dict[str, CostEstimate]:
    """Roofline estimate per candidate backend (the planner's evidence).

    Returns ``{backend: CostEstimate}`` for every candidate with a cost
    function, unranked -- benches and tests use this to show *why* a
    plan was chosen.
    """
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    check_positive_int(batch_hint, "batch_hint")
    spec = spec or QuantSpec()
    mc = _resolve_machine(machine if machine is not None else spec.machine)
    names = candidates if candidates is not None else lossless_engines()
    if not names:
        raise ValueError("no candidate backends to plan over")
    out: dict[str, CostEstimate] = {}
    for name in names:
        entry = engine_entry(name)
        if entry.cost is None:
            continue
        out[name] = entry.cost(mc, m, n, batch_hint, spec)
    if not out:
        raise ValueError(
            f"none of the candidates {list(names)} have a cost function"
        )
    return out


def plan_backend(
    m: int,
    n: int,
    *,
    spec: QuantSpec | None = None,
    batch_hint: int = 1,
    machine: str | MachineConfig | None = None,
    candidates: tuple[str, ...] | None = None,
    use_cache: bool = True,
) -> str:
    """Choose the cheapest backend for an ``(m, n)`` layer at a batch.

    Candidates default to the lossless registered engines, so planning
    never trades accuracy silently.  ``spec.planner="autotune"``
    replaces the cost model with host micro-benchmarks.  Results are
    memoized per ``(shape, bits, mu, batch-bucket, machine, planner)``.
    """
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    check_positive_int(batch_hint, "batch_hint")
    spec = spec or QuantSpec()
    mc = _resolve_machine(machine if machine is not None else spec.machine)
    names = candidates if candidates is not None else lossless_engines()
    key = _PlanKey(
        m=m,
        n=n,
        bits=spec.bits,
        mu=spec.mu,
        bucket=batch_bucket(batch_hint),
        machine=mc,
        planner=spec.planner,
        candidates=tuple(names),
        fuse=getattr(spec, "fuse", None),
    )
    if use_cache:
        with _CACHE_LOCK:
            cached = _PLAN_CACHE.get(key)
            if cached is not None:
                _CACHE_STATS["hits"] += 1
                return cached
            _CACHE_STATS["misses"] += 1
    if spec.planner == "autotune":
        from repro.core.autotune import empirical_backend

        choice, _ = empirical_backend(
            m,
            n,
            key.bucket,
            bits=spec.bits,
            mu=spec.mu,
            candidates=names,
        )
    elif spec.planner == "model":
        costs = plan_costs(
            m,
            n,
            spec=spec,
            batch_hint=key.bucket,
            machine=mc,
            candidates=names,
        )
        choice = min(costs, key=lambda name: costs[name].seconds)
        from repro.obs import runtime as _rt

        if _rt.DRIFT:
            # Drift telemetry: park every candidate's predicted price
            # on the (engine, shape-bucket) key the traced layer path
            # will later attach measured wall time to.  Cache misses
            # only, so the hot (cached) path never reaches here.
            from repro.obs.drift import record_prediction

            source = machine if machine is not None else spec.machine
            machine_key = source if isinstance(source, str) else mc.name
            for backend, estimate in costs.items():
                record_prediction(
                    backend,
                    m,
                    n,
                    spec.bits,
                    key.bucket,
                    estimate.seconds,
                    mu=spec.mu,
                    machine=machine_key,
                )
    else:
        raise ValueError(
            f"planner must be 'model' or 'autotune', got {spec.planner!r}"
        )
    if use_cache:
        with _CACHE_LOCK:
            _PLAN_CACHE[key] = choice
    return choice


def dispatch(
    shape: tuple[int, int],
    bits: int = 3,
    batch_hint: int = 1,
    machine: str | MachineConfig | None = None,
    **kwargs,
) -> str:
    """Plan a backend from a bare ``(m, n)`` shape (convenience form).

    Equivalent to :func:`plan_backend` with a default
    :class:`~repro.engine.base.QuantSpec` at *bits*; extra keyword
    arguments (``mu``, ``method``, ...) override spec fields.
    """
    m, n = shape
    spec = QuantSpec(bits=bits, **kwargs)
    return plan_backend(m, n, spec=spec, batch_hint=batch_hint, machine=machine)


def resolve_backend(
    spec: QuantSpec, m: int, n: int, batch: int = 1
) -> str:
    """Resolve a spec to a concrete backend name for one multiply.

    Concrete backends pass through; ``"auto"`` plans at
    ``spec.batch_hint`` when set (a stable choice for the whole layer
    lifetime) or at the observed *batch* otherwise (per-call regime
    switching, served from the plan cache).
    """
    if spec.backend != AUTO_BACKEND:
        return spec.backend
    hint = spec.batch_hint if spec.batch_hint is not None else batch
    return plan_backend(m, n, spec=spec, batch_hint=hint)


def crossover_batch(
    m: int,
    n: int,
    *,
    spec: QuantSpec | None = None,
    machine: str | MachineConfig | None = None,
    max_batch: int = 1024,
) -> int | None:
    """Smallest power-of-two batch at which the plan leaves BiQGEMM.

    This is the paper's Fig. 10 crossover -- the batch where the dense
    baseline catches the LUT kernel.  Returns ``None`` when BiQGEMM is
    still planned at *max_batch* (the small-``bits`` regime where it
    never loses within range).
    """
    check_positive_int(max_batch, "max_batch")
    spec = spec or QuantSpec()
    b = 1
    while b <= max_batch:
        plan = plan_backend(m, n, spec=spec, batch_hint=b, machine=machine)
        if plan != "biqgemm":
            return b
        b *= 2
    return None
