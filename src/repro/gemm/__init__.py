"""Baseline matrix-multiplication kernels the paper compares against.

Two of these kernels are what registered serving engines of the
:mod:`repro.engine` registry (the adapter layer in
:mod:`repro.engine.adapters`) compute; the dispatch planner prices them
against BiQGEMM per shape, batch, bit width and machine:

:func:`sgemm` (:mod:`repro.gemm.sgemm`)
    Dense float GEMM through numpy's BLAS -- the stand-in for Intel
    MKL / Eigen / cuBLAS.  ``"dense"`` runs the same BLAS product over
    the dequantized weight (the Fig. 10 baseline).
:class:`Int8Gemm` (:mod:`repro.gemm.int8`)
    Fixed-point INT8 GEMM with dynamic activation quantization (the
    uniform-quantization pipeline of paper Section II-A), served as
    ``"int8"``.  Lossy, so never an ``auto`` choice.

The rest are paper-bench baselines, not serving engines (in a host
sweep sGEMM and unpack never beat ``dense``; XNOR is lossy), so the
Fig. 9/10, Table IV and ablation benches call them directly:

:func:`sgemm_container` (:mod:`repro.gemm.sgemm`)
    The paper's "sGEMM" mode: one binary component per 32-bit
    container and one BLAS plane per bit, so quantization brings no
    speedup.
:func:`gemm_with_unpack` (:mod:`repro.gemm.packed`)
    GEMM over bit-packed weights *with* the Algorithm 3 unpacking step
    (correct, slow), and :func:`gemm_without_unpack`, the *without*
    scenario (incorrect by design; the bandwidth probe of Fig. 9).
:class:`XnorGemm` (:mod:`repro.gemm.xnor`)
    XNOR-popcount GEMM with quantized activations (paper Eq. 3 and the
    ``xnor`` column of Table IV).  Lossy.

:mod:`repro.gemm.reference` (naive and blocked triple-loop GEMM, the
analogue of the paper's ``kCpu``/``kGpu`` textbook kernels) is kept as
a testing oracle only.
"""

from repro.gemm.sgemm import sgemm, sgemm_container
from repro.gemm.reference import gemm_reference, gemm_blocked
from repro.gemm.packed import (
    gemm_with_unpack,
    gemm_without_unpack,
    unpack_flop_count,
)
from repro.gemm.xnor import XnorGemm, xnor_popcount_dot
from repro.gemm.int8 import Int8Gemm, quantize_activations_int8

__all__ = [
    "Int8Gemm",
    "quantize_activations_int8",
    "sgemm",
    "sgemm_container",
    "gemm_reference",
    "gemm_blocked",
    "gemm_with_unpack",
    "gemm_without_unpack",
    "unpack_flop_count",
    "XnorGemm",
    "xnor_popcount_dot",
]
