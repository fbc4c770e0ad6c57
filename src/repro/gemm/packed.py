"""GEMM over bit-packed weights: the paper's Fig. 9 experiment.

Bit packing is mandatory for quantized models to realise their memory
savings, but standard GEMM cannot consume packed words -- bits must be
extracted first (paper Algorithm 3).  Fig. 9 measures three scenarios:

``w/ unpack`` (:func:`gemm_with_unpack`)
    Unpack each packed word into 32 signs, then multiply.  Correct, but
    the bit-level manipulation dominates -- the paper's point is that
    this overhead outweighs the bandwidth saved.
``sGEMM`` (:func:`repro.gemm.sgemm.sgemm_container`)
    One quantized weight per 32-bit container; no packing, no savings.
``w/o unpack`` (:func:`gemm_without_unpack`)
    Multiply the packed words *as if* they were the weights.  The result
    is numerically meaningless (the paper says so explicitly) but the
    traffic pattern is that of the packed model, so the runtime gap to
    sGEMM isolates the bandwidth gain, and the gap to ``w/ unpack``
    isolates the unpacking overhead.
"""

from __future__ import annotations

import numpy as np

from repro.quant.packing import PackedBits, unpack_bits

__all__ = ["gemm_with_unpack", "gemm_without_unpack", "unpack_flop_count"]


def _check_x(packed: PackedBits, x: np.ndarray, n_expected: int) -> np.ndarray:
    xm = np.asarray(x)
    if xm.ndim not in (1, 2):
        raise ValueError(f"x must be 1-D or 2-D, got shape {xm.shape}")
    if xm.shape[0] != n_expected:
        raise ValueError(
            f"x has {xm.shape[0]} rows, packed weights expect {n_expected}"
        )
    return xm


def gemm_with_unpack(
    packed: PackedBits,
    x: np.ndarray,
) -> np.ndarray:
    """Unpack packed binary weights, then BLAS-multiply (correct result).

    ``packed`` must wrap a 2-D ``(m, n)`` binary matrix packed along the
    last axis.  The unpack step is deliberately performed in full before
    the multiply, as a production GEMM would (paper Algorithm 3), so its
    cost is visible to the benchmarks.
    """
    if not isinstance(packed, PackedBits):
        raise TypeError(f"expected PackedBits, got {type(packed).__name__}")
    if packed.words.ndim != 2:
        raise ValueError(
            f"packed words must be 2-D (m, n_words), got {packed.words.shape}"
        )
    xm = _check_x(packed, x, packed.n)
    dtype = xm.dtype if np.issubdtype(xm.dtype, np.floating) else np.float64
    unpacked = unpack_bits(packed).astype(dtype)
    return unpacked @ xm.astype(dtype, copy=False)


def gemm_without_unpack(packed: PackedBits, x: np.ndarray) -> np.ndarray:
    """Multiply packed words directly: WRONG VALUES, bandwidth probe only.

    Implements the paper's "w/o unpack" scenario: each 32-bit packed word
    is treated as a single scalar weight multiplying the *first*
    activation row of its 32-row block (products of packed scalars and a
    length-32-subsampled input).  The output shape matches the correct
    product but the numbers are meaningless -- callers must treat the
    result as a timing artifact.  A leading underscore-free name is kept
    deliberately close to the paper's terminology; the docstring is the
    warning label.
    """
    if not isinstance(packed, PackedBits):
        raise TypeError(f"expected PackedBits, got {type(packed).__name__}")
    if packed.words.ndim != 2:
        raise ValueError(
            f"packed words must be 2-D (m, n_words), got {packed.words.shape}"
        )
    xm = _check_x(packed, x, packed.n)
    vector_in = xm.ndim == 1
    if vector_in:
        xm = xm[:, None]
    dtype = xm.dtype if np.issubdtype(xm.dtype, np.floating) else np.float64
    # One representative activation row per 32-row block, matching the
    # element count a packed multiply would stream.
    x_sub = xm[:: packed.container_bits].astype(dtype, copy=False)
    w_eff = packed.words.astype(dtype)
    n_words = w_eff.shape[1]
    out = w_eff @ x_sub[:n_words]
    return out[:, 0] if vector_in else out


def unpack_flop_count(m: int, n: int, container_bits: int = 32) -> int:
    """Instruction count of full unpacking (paper Algorithm 3).

    Four scalar ops per extracted weight (shift, mask, multiply,
    subtract) times ``m * n`` weights; used by the cost model to price
    the ``w/ unpack`` scenario.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if container_bits < 1:
        raise ValueError("container_bits must be positive")
    return 4 * m * n
