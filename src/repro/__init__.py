"""BiQGEMM reproduction: lookup-table GEMM for binary-coding-quantized DNNs.

This package reimplements the system described in

    Jeon, Park, Kwon, Kim, Yun, Lee.
    "BiQGEMM: Matrix Multiplication with Lookup Table For
    Binary-Coding-based Quantized DNNs", SC 2020.

Public API overview
-------------------
``repro.core``
    The paper's contribution: the :class:`~repro.core.kernel.BiQGemm`
    engine (offline key compilation, dynamic-programming LUT build,
    LUT-stationary tiled query) plus autotuning and phase profiling.
``repro.quant``
    Binary-coding quantization (1-bit, greedy and alternating multi-bit),
    uniform quantization, bit packing, and error metrics.
``repro.gemm``
    Baseline kernels: float BLAS GEMM, naive reference GEMM, packed GEMM
    with/without unpacking, and XNOR-popcount GEMM.
``repro.engine``
    The unified engine registry (the serving backends ``biqgemm``,
    ``dense`` and ``int8`` behind one protocol) and the
    cost-model dispatch planner that resolves ``backend="auto"`` once
    per layer from its shape, batch hint and machine.
``repro.hw``
    Simulated hardware substrate: the paper's Table III machine
    configurations, a roofline cost model, the Table II memory model and
    an operation-counting simulator.
``repro.api``
    The model-level pipeline: declarative :class:`~repro.api.QuantConfig`
    (global defaults + per-layer glob overrides),
    :func:`~repro.api.quantize` over whole models, one-pass
    :meth:`~repro.api.QuantModel.compile` planning, and the v3
    whole-model artifact (``repro.api.save`` / ``repro.api.load``).
``repro.nn``
    Inference-only DNN layers (linear, attention, Transformer, LSTM) that
    can be backed by any of the registered engines.
``repro.train``
    A tiny numpy training substrate used for the Table I accuracy proxy.
``repro.bench``
    The experiment registry and CLI that regenerate every table and
    figure of the paper's evaluation section.

Quickstart
----------
>>> import numpy as np
>>> from repro import BiQGemm
>>> rng = np.random.default_rng(0)
>>> W = rng.standard_normal((1024, 512)).astype(np.float32)
>>> X = rng.standard_normal((512, 8)).astype(np.float32)
>>> engine = BiQGemm.from_float(W, bits=3, mu=8)
>>> Y = engine.matmul(X)           # approximately W @ X
>>> Y.shape
(1024, 8)
"""

from __future__ import annotations

from repro.core.kernel import BiQGemm
from repro.core.autotune import analytic_mu
from repro.quant.bcq import bcq_quantize, BCQTensor
from repro.quant.uniform import uniform_quantize
from repro.hw.machine import MachineConfig, MACHINES
from repro.hw.costmodel import estimate
from repro.engine import (
    QuantSpec,
    dispatch,
    plan_backend,
    registered_engines,
)

__version__ = "1.2.0"

from repro.api import QuantConfig, quantize  # noqa: E402  (needs __version__)

__all__ = [
    "BiQGemm",
    "QuantConfig",
    "QuantSpec",
    "quantize",
    "analytic_mu",
    "bcq_quantize",
    "BCQTensor",
    "dispatch",
    "plan_backend",
    "registered_engines",
    "uniform_quantize",
    "MachineConfig",
    "MACHINES",
    "estimate",
    "__version__",
]
