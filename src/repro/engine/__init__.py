"""Unified engine registry and cost-model-driven dispatch.

The platform layer between the kernels (:mod:`repro.core`,
:mod:`repro.gemm`) and the model substrate (:mod:`repro.nn`): every
matmul backend registers here behind one protocol, and the planner
resolves ``backend="auto"`` once per layer, from its shape, batch hint
and machine, with the roofline cost model -- realising the paper's
Section V observation that the best kernel is situational (BiQGEMM at
small batch, BLAS at large).
Only serving engines are registered; the paper's sGEMM,
unpack-then-GEMM and XNOR kernels stay in :mod:`repro.gemm` as
paper-bench baselines.

- :mod:`repro.engine.base` -- :class:`MatmulEngine` protocol,
  :class:`QuantSpec`, :class:`EngineBuildRequest`;
- :mod:`repro.engine.registry` -- string-keyed
  :class:`EngineEntry` registry with build/cost/serialize hooks;
- :mod:`repro.engine.compiled` -- ``biqgemm``, the one LUT serving
  engine: the paper's kernel on the native code path with a fused
  epilogue (the numpy :class:`~repro.core.kernel.BiQGemm` is its
  fallback and reference);
- :mod:`repro.engine.adapters` -- registrations for ``dense`` and
  ``int8``;
- :mod:`repro.engine.dispatch` -- the planner and the Fig. 10
  crossover probe.

>>> import numpy as np
>>> from repro.engine import QuantSpec, dispatch
>>> dispatch((1024, 1024), bits=3, batch_hint=1, machine="pc")
'biqgemm'
>>> dispatch((1024, 1024), bits=3, batch_hint=256, machine="pc")
'dense'
"""

from repro.engine.base import (
    AUTO_BACKEND,
    Backend,
    EngineBuildRequest,
    MatmulEngine,
    QuantSpec,
)
from repro.engine.registry import (
    EngineEntry,
    build_engine,
    engine_entry,
    lossless_engines,
    register_engine,
    registered_engines,
)
from repro.engine import adapters as _adapters  # populate the registry
from repro.engine import compiled as _compiled  # the LUT engine
from repro.engine.dispatch import (
    batch_bucket,
    batch_buckets,
    crossover_batch,
    dispatch,
    plan_backend,
    plan_costs,
    resolve_backend,
    validate_spec,
)

del _adapters
del _compiled

__all__ = [
    "AUTO_BACKEND",
    "Backend",
    "EngineBuildRequest",
    "EngineEntry",
    "MatmulEngine",
    "QuantSpec",
    "batch_bucket",
    "batch_buckets",
    "build_engine",
    "crossover_batch",
    "dispatch",
    "engine_entry",
    "lossless_engines",
    "plan_backend",
    "plan_costs",
    "register_engine",
    "registered_engines",
    "resolve_backend",
    "validate_spec",
]
