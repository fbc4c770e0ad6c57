"""Registrations adapting the serving engines to the protocol.

Importing this module (which ``repro.engine`` does) populates the
registry with three of the four serving backends (the fourth,
``compiled``, lives in :mod:`repro.engine.compiled`):

``biqgemm``
    :class:`repro.core.kernel.BiQGemm` -- satisfies the protocol
    natively, registered as-is.
``dense``
    Dequantize once, BLAS forever; numerically identical to
    ``biqgemm`` and its oracle in tests.
``int8``
    Uniform fixed-point GEMM with dynamic activation quantization
    (Section II-A); *lossy*, never an ``auto`` candidate.

The paper's other comparison kernels -- sGEMM with one binary weight
per 32-bit container (:func:`repro.gemm.sgemm_container`), bit-packed
unpack-then-GEMM (:func:`repro.gemm.gemm_with_unpack`, Algorithm 3)
and XNOR-popcount (:class:`repro.gemm.XnorGemm`) -- are paper-bench
baselines, not serving engines: in a host sweep sGEMM and unpack never
beat ``dense``, and XNOR is lossy, so none is registered here.

Dtype convention: every adapter returns results in the input's
floating dtype (integer/bool inputs promote to float64), matching
:meth:`BiQGemm.matmul`.  Accumulators are allocated in that dtype --
float32 activations stay float32 end to end.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro._util import check_positive_int
from repro.core.kernel import BiQGemm
from repro.engine.base import EngineBuildRequest, QuantSpec
from repro.engine.registry import EngineEntry, register_engine
from repro.gemm.int8 import Int8Gemm
from repro.hw.costmodel import estimate_backend
from repro.quant.bcq import BCQTensor

__all__ = ["DenseGemmEngine", "Int8MatmulEngine"]


def _float_dtype(x: np.ndarray) -> np.dtype:
    """The result dtype for input *x*: its own if floating, else f64."""
    if np.issubdtype(x.dtype, np.floating):
        return x.dtype
    return np.dtype(np.float64)


def _as_cols(x: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Validate paper-orientation input and report vector-ness."""
    arr = np.asarray(x)
    vector_in = arr.ndim == 1
    if vector_in:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ValueError(
            f"x must be ({n}, b) or ({n},), got shape {np.asarray(x).shape}"
        )
    return arr, vector_in


def _cost_fn(backend: str):
    def cost(machine, m: int, n: int, b: int, spec: QuantSpec):
        return estimate_backend(
            backend,
            machine,
            m,
            n,
            b,
            bits=spec.bits,
            mu=spec.mu,
        )

    return cost


def _bcq_state(bcq: BCQTensor) -> dict:
    return {"binary": bcq.binary, "alphas": bcq.alphas}


def _bcq_from_state(state: Mapping) -> BCQTensor:
    return BCQTensor(
        alphas=np.asarray(state["alphas"]),
        binary=np.asarray(state["binary"]),
    )


# ----------------------------------------------------------------------
# biqgemm -- the paper's kernel, protocol-native
# ----------------------------------------------------------------------
def _build_biqgemm(request: EngineBuildRequest) -> BiQGemm:
    engine = BiQGemm.from_bcq(request.get_bcq(), mu=request.spec.mu)
    # Layer engines are batch-invariant by contract: the serving layer
    # coalesces requests and splits outputs per request, and those must
    # be bit-identical to a direct CompiledModel call -- so the whole
    # layer stack, not just serving replicas, pins the deterministic
    # (DP-builder / loop-query) execution.  Direct kernel users keep
    # the measured-faster per-batch heuristics.
    engine.batch_invariant = True
    return engine


def _export_biqgemm(engine: BiQGemm) -> dict:
    return {
        "keys": engine.key_matrix.keys,
        "alphas": engine.alphas,
        "mu": int(engine.mu),
        "n": int(engine.shape[1]),
    }


def _restore_biqgemm(state: Mapping) -> BiQGemm:
    from repro.core.keys import KeyMatrix

    km = KeyMatrix(
        keys=np.asarray(state["keys"]), mu=int(state["mu"]), n=int(state["n"])
    )
    engine = BiQGemm(km, alphas=np.asarray(state["alphas"]))
    engine.batch_invariant = True
    return engine


register_engine(
    EngineEntry(
        name="biqgemm",
        build=_build_biqgemm,
        cost=_cost_fn("biqgemm"),
        lossless=True,
        description="lookup-table GEMM over compiled keys (the paper)",
        export=_export_biqgemm,
        restore=_restore_biqgemm,
    )
)


# ----------------------------------------------------------------------
# dense -- dequantize once, BLAS forever
# ----------------------------------------------------------------------
class DenseGemmEngine:
    """Dequantized-weight BLAS GEMM (the Fig. 10 baseline)."""

    backend_name = "dense"

    def __init__(self, bcq: BCQTensor):
        self._bcq = bcq
        self._weight = bcq.dequantize()
        # Weight re-cast per activation dtype, cached (float64 maps to
        # the original array, astype(copy=False)).
        self._weight_cache: dict[np.dtype, np.ndarray] = {}
        m, n = bcq.shape
        self._shape = (m, n)
        # One float32 word per weight (deployed form) plus the scales,
        # matching the historical QuantLinear accounting.
        self._nbytes = m * n * 4 + bcq.alphas.nbytes

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def bcq(self) -> BCQTensor:
        """The quantization this engine was compiled from."""
        return self._bcq

    @property
    def weight_nbytes(self) -> int:
        return self._nbytes

    def _weight_for(self, dtype: np.dtype) -> np.ndarray:
        w = self._weight_cache.get(dtype)
        if w is None:
            w = self._weight.astype(dtype, copy=False)
            self._weight_cache[dtype] = w
        return w

    def matmul(self, x: np.ndarray) -> np.ndarray:
        arr, vector_in = _as_cols(x, self._shape[1])
        dtype = _float_dtype(arr)
        out = self._weight_for(dtype) @ arr.astype(dtype, copy=False)
        return out[:, 0] if vector_in else out

    def op_counts(self, batch: int) -> dict[str, float]:
        check_positive_int(batch, "batch")
        m, n = self._shape
        return {"flops": 2.0 * m * n * batch}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseGemmEngine(m={self._shape[0]}, n={self._shape[1]})"


register_engine(
    EngineEntry(
        name="dense",
        build=lambda request: DenseGemmEngine(request.get_bcq()),
        cost=_cost_fn("dense"),
        lossless=True,
        description="dequantize once, dense BLAS GEMM",
        export=lambda engine: _bcq_state(engine.bcq),
        restore=lambda state: DenseGemmEngine(_bcq_from_state(state)),
    )
)


# ----------------------------------------------------------------------
# int8 -- uniform fixed-point GEMM (lossy)
# ----------------------------------------------------------------------
class Int8MatmulEngine:
    """Dynamic-quantization INT8 GEMM over the *original* float weight.

    Unlike the BCQ-derived engines, the uniform grid is fitted to the
    float weight directly (paper Section II-A), so building this engine
    requires the original weight in the request; once fitted, only the
    integer codes and scales are retained (and serialized).  Lossy:
    ``auto`` never selects it.
    """

    backend_name = "int8"

    def __init__(
        self,
        weight: np.ndarray | None = None,
        *,
        inner: Int8Gemm | None = None,
    ):
        if (weight is None) == (inner is None):
            raise ValueError("provide exactly one of weight or inner")
        if inner is None:
            inner = Int8Gemm(np.asarray(weight, dtype=np.float64), w_bits=8)
        self._inner = inner
        self._shape = inner.shape

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def weight_nbytes(self) -> float:
        return self._inner.weight_nbytes

    def dequantized(self) -> np.ndarray:
        """Effective dense weight of the uniform grid."""
        return self._inner.dequantized()

    def matmul(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x)
        dtype = _float_dtype(arr)
        out = self._inner.matmul(arr, a_bits=8)
        return out.astype(dtype, copy=False)

    def op_counts(self, batch: int) -> dict[str, float]:
        check_positive_int(batch, "batch")
        m, n = self._shape
        return {
            "flops": 2.0 * m * n * batch,
            "convert_ops": 4.0 * (n * batch + m * batch),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Int8MatmulEngine(m={self._shape[0]}, n={self._shape[1]})"


def _export_int8(engine: Int8MatmulEngine) -> dict:
    # Ship the fitted grid (codes + scales), never the float weight.
    wq = engine._inner.quantized
    return {
        "q": wq.q,
        "scale": np.asarray(wq.scale),
        "zero_point": np.asarray(wq.zero_point),
        "w_bits": int(wq.bits),
    }


def _restore_int8(state: Mapping) -> Int8MatmulEngine:
    from repro.quant.uniform import UniformQuantized

    wq = UniformQuantized(
        q=np.asarray(state["q"]),
        scale=np.asarray(state["scale"]),
        zero_point=np.asarray(state["zero_point"]),
        bits=int(state["w_bits"]),
    )
    return Int8MatmulEngine(inner=Int8Gemm.from_quantized(wq))


register_engine(
    EngineEntry(
        name="int8",
        build=lambda request: Int8MatmulEngine(request.get_weight()),
        cost=_cost_fn("int8"),
        lossless=False,
        needs_weight=True,
        description="uniform INT8 GEMM, dynamic activation quantization",
        export=_export_int8,
        restore=_restore_int8,
    )
)
