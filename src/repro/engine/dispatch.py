"""Cost-model-driven backend planning (the paper's Section V lesson).

No single engine wins everywhere: BiQGEMM dominates the small-batch
GEMV-like regime the paper targets, a tuned BLAS overtakes it once the
batch amortizes the weight traffic (Fig. 10's crossovers), and the
exact crossover moves with bit width and machine.  This module turns
that observation into a planner:

:func:`plan_backend` / :func:`dispatch`
    Rank the lossless registered engines by their roofline cost on a
    :class:`~repro.hw.machine.MachineConfig` and return the cheapest.
    A pure function of its arguments: it prices the candidates and
    returns the argmin, nothing more.
:func:`resolve_backend`
    The layer-facing entry point: passes concrete backend names
    through untouched and plans ``"auto"`` once, at the spec's
    ``batch_hint`` (1 when unset) -- the rule
    :meth:`repro.api.QuantModel.compile` applies too.  A layer holds
    the one engine it resolves for every batch, so batched output
    equals unbatched output.
:func:`crossover_batch`
    The batch size at which the plan switches away from BiQGEMM -- the
    quantity Fig. 10 plots.
"""

from __future__ import annotations

from repro._util import batch_bucket, check_positive_int
from repro.engine.base import AUTO_BACKEND, QuantSpec
from repro.engine.registry import engine_entry, lossless_engines
from repro.hw.costmodel import CostEstimate
from repro.hw.machine import MACHINES, MachineConfig

__all__ = [
    "batch_bucket",
    "batch_buckets",
    "crossover_batch",
    "dispatch",
    "plan_backend",
    "plan_costs",
    "resolve_backend",
    "validate_spec",
]


def validate_spec(spec: QuantSpec) -> QuantSpec:
    """Fail fast on spec fields the registry or planner would reject later.

    Layers and configs call this at construction so that a typo'd
    backend or machine surfaces immediately rather than on the first
    multiply.  Returns *spec* unchanged for call-chaining.
    """
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


def batch_buckets(max_batch: int = 1024) -> tuple[int, ...]:
    """All bucket boundaries up to ``batch_bucket(max_batch)``.

    The serving layer coalesces micro-batches toward these targets
    (:class:`repro.serve.Batcher`), and drift telemetry keys its
    predicted-vs-measured pairs on them, so a batch released exactly at
    a boundary lands on the same key the planner priced.
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
) -> str:
    """Choose the cheapest backend for an ``(m, n)`` layer at a batch.

    Candidates default to the lossless registered engines, so planning
    never trades accuracy silently.  The batch is priced at its
    :func:`batch_bucket`.
    """
    check_positive_int(batch_hint, "batch_hint")
    costs = plan_costs(
        m,
        n,
        spec=spec,
        batch_hint=batch_bucket(batch_hint),
        machine=machine,
        candidates=candidates,
    )
    return min(costs, key=lambda name: costs[name].seconds)


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


def resolve_backend(spec: QuantSpec, m: int, n: int) -> str:
    """Resolve a spec to the one concrete backend a layer runs.

    Concrete backends pass through; ``"auto"`` plans at
    ``spec.batch_hint``, or at batch 1 when it is unset.
    """
    if spec.backend != AUTO_BACKEND:
        return spec.backend
    return plan_backend(m, n, spec=spec, batch_hint=spec.batch_hint or 1)


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
