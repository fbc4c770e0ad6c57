"""One planning pass over a whole model's GEMM shapes.

Both :meth:`repro.api.QuantModel.compile` and
:func:`repro.nn.model_zoo.model_backend_plan` route through
:func:`plan_layers`, so there is exactly one place where per-layer
specs meet the :mod:`repro.engine.dispatch` planner -- cost-model fixes
and cache behaviour apply everywhere at once.  Plans come from the
process-wide plan cache: a BERT-large pass prices each *distinct*
``(m, n, spec, batch)`` once and every deeper layer is a dict hit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from repro._util import check_positive_int
from repro.api.config import QuantConfig
from repro.engine import (
    AUTO_BACKEND,
    QuantSpec,
    lossless_engines,
    plan_backend,
    plan_costs,
)
from repro.hw.costmodel import CostEstimate

__all__ = [
    "LayerPlan",
    "ModelCostReport",
    "cost_report",
    "layer_cost",
    "plan_layers",
]


@dataclass(frozen=True)
class LayerPlan:
    """The planner's decision for one named layer.

    ``backend`` is always concrete; ``spec`` is the per-layer spec the
    decision was planned under (overrides applied, ``backend`` still as
    configured, so ``spec.backend == "auto"`` means the planner chose).
    """

    name: str
    m: int
    n: int
    backend: str
    spec: QuantSpec


def _effective_spec(
    spec: QuantSpec,
    *,
    planner: str | None,
    machine: str | None,
) -> QuantSpec:
    if planner is not None:
        spec = replace(spec, planner=planner)
    if machine is not None:
        spec = replace(spec, machine=machine)
    return spec


def plan_layers(
    shapes: Iterable[tuple[str, int, int]],
    config: QuantConfig,
    *,
    batch_hint: int = 1,
    planner: str | None = None,
    machine: str | None = None,
    fusions: Mapping[str, str] | None = None,
) -> list[LayerPlan]:
    """Plan every ``(name, m, n)`` shape under *config* in one pass.

    Per-layer specs come from :meth:`QuantConfig.spec_for` (globs
    applied), concrete backends pass through, and ``"auto"`` resolves
    via :func:`repro.engine.dispatch.plan_backend` at *batch_hint*.
    *planner* / *machine* override the config for this pass only (the
    ``CompiledModel.compile(planner="autotune")`` path).

    An ``"auto"`` layer is priced once, with the native ``"compiled"``
    engine added to the lossless candidates.  Its price is never above
    ``"biqgemm"``'s, so it is the LUT engine of every compiled layer.
    *fusions* maps layer names to the activation that follows them in
    the model graph (:meth:`QuantModel.compile`'s fusion planning pass);
    a layer planned onto ``"compiled"`` there gets ``spec.fuse`` set.
    """
    check_positive_int(batch_hint, "batch_hint")
    fusions = fusions or {}
    candidates = lossless_engines() + ("compiled",)
    plans: list[LayerPlan] = []
    for name, m, n in shapes:
        spec = _effective_spec(
            config.spec_for(name), planner=planner, machine=machine
        )
        if spec.backend == AUTO_BACKEND:
            backend = plan_backend(
                m, n, spec=spec, batch_hint=batch_hint, candidates=candidates
            )
            act = fusions.get(name)
            if backend == "compiled" and act is not None and spec.fuse is None:
                spec = replace(spec, fuse=act)
        else:
            backend = spec.backend
        plans.append(
            LayerPlan(name=name, m=int(m), n=int(n), backend=backend, spec=spec)
        )
    return plans


def layer_cost(plan: LayerPlan, *, batch_hint: int = 1) -> CostEstimate | None:
    """Roofline estimate of *plan*'s chosen backend at *batch_hint*.

    ``None`` when the backend opted out of cost modelling.
    """
    try:
        costs = plan_costs(
            plan.m,
            plan.n,
            spec=plan.spec,
            batch_hint=batch_hint,
            candidates=(plan.backend,),
        )
    except ValueError:
        return None
    return costs.get(plan.backend)


@dataclass(frozen=True)
class ModelCostReport:
    """Per-layer planner evidence for one compiled model."""

    batch_hint: int
    rows: tuple[tuple[str, str, int, int, float], ...]
    """``(layer, backend, m, n, predicted seconds)`` per layer."""

    @property
    def total_seconds(self) -> float:
        """Predicted seconds for one forward pass over all GEMMs."""
        return sum(row[4] for row in self.rows)

    def by_backend(self) -> dict[str, int]:
        """Layer count per chosen backend."""
        out: dict[str, int] = {}
        for _, backend, _, _, _ in self.rows:
            out[backend] = out.get(backend, 0) + 1
        return out

    def __str__(self) -> str:
        lines = [
            f"cost report (batch_hint={self.batch_hint}, "
            f"total {self.total_seconds:.3e} s):"
        ]
        for name, backend, m, n, seconds in self.rows:
            lines.append(
                f"  {name:<24} {backend:<10} ({m} x {n})  {seconds:.3e} s"
            )
        return "\n".join(lines)


def cost_report(
    plans: Sequence[LayerPlan], *, batch_hint: int = 1
) -> ModelCostReport:
    """Price every plan's chosen backend; the per-model cost report."""
    rows = []
    for plan in plans:
        est = layer_cost(plan, batch_hint=batch_hint)
        seconds = float(est.seconds) if est is not None else float("nan")
        rows.append((plan.name, plan.backend, plan.m, plan.n, seconds))
    return ModelCostReport(batch_hint=batch_hint, rows=tuple(rows))
