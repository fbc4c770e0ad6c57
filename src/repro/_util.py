"""Shared validation and small numeric helpers.

Internal module: everything here is private to the package. The helpers
centralise argument checking so kernels can fail fast with uniform,
actionable error messages instead of deep numpy broadcasting errors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "as_2d_float",
    "batch_bucket",
    "check_binary",
    "check_matmul_out",
    "check_positive_int",
    "ceil_div",
    "pad_axis",
]


def check_matmul_out(
    out: np.ndarray,
    m: int,
    batch: int,
    dtype,
    x: np.ndarray,
    vector_in: bool,
) -> np.ndarray:
    """Validate a ``matmul(out=...)`` destination; returns its 2-D view.

    The shared contract of the engines accepting ``out=``: exact ``(m,
    batch)`` shape (``(m,)`` accepted for vector input), exact compute
    dtype, writable, and no (possible) aliasing with the input -- the
    engines read *x* while accumulating into *out*.
    """
    if not isinstance(out, np.ndarray):
        raise TypeError(f"out must be an ndarray, got {type(out).__name__}")
    if vector_in and out.shape == (m,):
        out2 = out[:, None]
    elif out.shape == (m, batch):
        out2 = out
    else:
        raise ValueError(
            f"out must have shape ({m}, {batch})"
            f"{f' or ({m},)' if vector_in else ''}, got {out.shape}"
        )
    if out.dtype != dtype:
        raise ValueError(
            f"out dtype {out.dtype} != computation dtype {dtype}"
        )
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    if np.may_share_memory(out, x):
        raise ValueError(
            "out must not alias x: the kernel accumulates into out "
            "while reading x"
        )
    return out2


def as_2d_float(a: np.ndarray, name: str, *, dtype=np.float64) -> np.ndarray:
    """Validate that *a* is a 2-D real array and return it as *dtype*.

    Raises ``TypeError``/``ValueError`` with the offending argument name so
    callers get a message pointing at their own parameter.
    """
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.floating) and not np.issubdtype(
        arr.dtype, np.integer
    ):
        raise TypeError(f"{name} must be numeric, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=dtype)


def check_binary(b: np.ndarray, name: str) -> np.ndarray:
    """Validate that *b* contains only -1/+1 and return it as ``int8``."""
    arr = np.asarray(b)
    if arr.size and not np.isin(np.unique(arr), (-1, 1)).all():
        bad = np.setdiff1d(np.unique(arr), (-1, 1))[:4]
        raise ValueError(f"{name} must contain only -1/+1, found values {bad}")
    return arr.astype(np.int8, copy=False)


def check_positive_int(value: int, name: str, *, upper: int | None = None) -> int:
    """Validate that *value* is a positive int, optionally bounded above."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if upper is not None and value > upper:
        raise ValueError(f"{name} must be <= {upper}, got {value}")
    return int(value)


def batch_bucket(batch: int) -> int:
    """Round *batch* up to the next power of two.

    The planner prices a batch at its bucket, so plans (and the drift
    telemetry keys they are recorded under) stay stable under small
    batch jitter, at the price of planning for a batch at most 2x the
    true one -- well inside the cost model's accuracy.
    """
    check_positive_int(batch, "batch")
    return 1 << (batch - 1).bit_length()


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative operands."""
    return -(-a // b)


def pad_axis(a: np.ndarray, multiple: int, axis: int, *, value=0) -> np.ndarray:
    """Zero-style pad *a* along *axis* up to the next multiple of *multiple*.

    Returns *a* unchanged (no copy) when the length already divides evenly.
    """
    length = a.shape[axis]
    target = ceil_div(length, multiple) * multiple
    if target == length:
        return a
    widths: list[tuple[int, int]] = [(0, 0)] * a.ndim
    widths[axis] = (0, target - length)
    return np.pad(a, widths, mode="constant", constant_values=value)
