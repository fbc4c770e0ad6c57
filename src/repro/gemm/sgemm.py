"""Dense float GEMM baselines (MKL / Eigen / cuBLAS stand-ins).

numpy's ``@`` dispatches to the BLAS the interpreter was built with;
that is this repo's analogue of the vendor libraries the paper measures
(``mkl``, ``eigen``, ``cublas``).  :func:`sgemm_container` realises the
paper's "sGEMM" scenario: quantized weights stored one-per-32-bit
container, i.e. dequantized up front so quantization yields **no**
performance benefit -- the baseline Fig. 10's speedups are normalized
against.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_2d_float, check_binary

__all__ = ["sgemm", "sgemm_container"]


def sgemm(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Full-precision GEMM ``w @ x`` via BLAS.

    Shapes follow the paper's orientation: ``w`` is ``(m, n)``, ``x`` is
    ``(n, b)`` (or ``(n,)``), the result is ``(m, b)`` (or ``(m,)``).
    Inputs are promoted to a common float dtype.
    """
    wm = np.asarray(w)
    xm = np.asarray(x)
    if wm.ndim != 2:
        raise ValueError(f"w must be 2-D, got shape {wm.shape}")
    if xm.ndim not in (1, 2):
        raise ValueError(f"x must be 1-D or 2-D, got shape {xm.shape}")
    if wm.shape[1] != xm.shape[0]:
        raise ValueError(
            f"inner dimensions disagree: w is {wm.shape}, x is {xm.shape}"
        )
    dtype = np.result_type(wm.dtype, xm.dtype, np.float32)
    return wm.astype(dtype, copy=False) @ xm.astype(dtype, copy=False)


def sgemm_container(
    binary: np.ndarray,
    x: np.ndarray,
    alphas: np.ndarray | None = None,
) -> np.ndarray:
    """Paper "sGEMM": binary weights stored one per 32-bit container.

    The binary components are expanded to float32 (one value per 32-bit
    word -- 31 bits of storage wasted, exactly the waste the paper
    describes) and multiplied with plain BLAS.  With ``alphas`` given,
    applies the per-row scales of each bit plane (Eq. 2); ``binary`` may
    be ``(m, n)`` or ``(bits, m, n)``.
    """
    arr = check_binary(binary, "binary")
    if arr.ndim == 2:
        arr = arr[None, ...]
    if arr.ndim != 3:
        raise ValueError(f"binary must be 2-D or 3-D, got shape {arr.shape}")
    bits, m, n = arr.shape
    if alphas is None:
        alphas_arr = np.ones((bits, m), dtype=np.float64)
    else:
        alphas_arr = np.asarray(alphas, dtype=np.float64)
        if alphas_arr.ndim == 1:
            alphas_arr = alphas_arr[None, :]
        if alphas_arr.shape != (bits, m):
            raise ValueError(
                f"alphas must have shape (bits, m) = ({bits}, {m}), "
                f"got {alphas_arr.shape}"
            )
    xm = np.asarray(x)
    vector_in = xm.ndim == 1
    if vector_in:
        xm = xm[:, None]
    dtype = np.result_type(xm.dtype, np.float32)
    out = np.zeros((m, xm.shape[1]), dtype=np.float64)
    for i in range(bits):
        containered = arr[i].astype(np.float32)  # the 32-bit container
        out += alphas_arr[i][:, None] * (containered.astype(dtype) @ xm)
    return out[:, 0] if vector_in else out
