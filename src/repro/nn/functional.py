"""Stateless neural-network functions.

The non-GEMM operations the paper notes must stay in floating point
(Section II-A: "layer normalization and softmax operations for attention
blocks for Transformers demand floating-point computations") -- one of
the arguments for weight-only quantization, since BiQGEMM keeps
activations in float and needs no format conversions around these ops.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.engine import native

__all__ = [
    "softmax",
    "layer_norm",
    "relu",
    "gelu",
    "sigmoid",
    "tanh",
    "FUSIBLE_ACTIVATIONS",
    "activation_fn",
    "activation_result_dtype",
]


def softmax(
    x: np.ndarray, axis: int = -1, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Numerically stable softmax along *axis*.

    Promotes to float64.  With *out* (shape/dtype of the promoted
    input; may alias *x*) the result is written in place, so the
    decode hot loop normalizes the attention scores without another
    allocation.

    The denominator is a strictly sequential left-fold sum (the last
    element of a running ``cumsum``), not ``np.sum``: numpy's pairwise
    reduction changes its association with the reduced length, while a
    left fold is invariant both to row count and to trailing
    exactly-zero entries (``s + 0.0 == s`` bitwise for the positive
    partial sums softmax produces).  Those two invariances are what
    make KV-cached single-token attention bit-identical to the masked
    full-sequence recompute: a causal row of length ``t`` and the same
    row padded with masked (``exp -> 0.0``) positions normalize to
    identical bits.

    The max-subtraction and ``exp`` run in numpy (a libm ``exp`` could
    differ in the last bit).  The denominator fold and the division run
    in the native library when it is loaded (:mod:`repro.engine.native`),
    in place on *out*; seeded with the row's first term, the fold gives
    the ``cumsum`` bits, so both paths agree bit for bit.
    """
    arr = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(arr)
    else:
        out = _activation_out(arr, out)
    np.subtract(arr, arr.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    kernel = native.load()
    if kernel is not None and out.flags.aligned:
        if out.size:
            # Rows along *axis*: it goes last in the geometry.
            ax = axis % out.ndim
            shape, strides = list(out.shape), list(out.strides)
            shape.append(shape.pop(ax))
            strides.append(strides.pop(ax))
            geom = array("q", shape + strides)
            if kernel.fold_softmax(
                out.ndim - 1, geom.buffer_info()[0], native.address(out)
            ):
                raise RuntimeError("native softmax fold rejected its call")
        return out
    scratch = np.cumsum(out, axis=axis)
    last = [slice(None)] * out.ndim
    last[axis] = slice(-1, None)
    out /= scratch[tuple(last)]
    return out


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    *,
    eps: float = 1e-5,
) -> np.ndarray:
    """Layer normalization over the last axis with optional affine."""
    arr = np.asarray(x, dtype=np.float64)
    mean = arr.mean(axis=-1, keepdims=True)
    var = arr.var(axis=-1, keepdims=True)
    out = (arr - mean) / np.sqrt(var + eps)
    if gamma is not None:
        out = out * np.asarray(gamma, dtype=np.float64)
    if beta is not None:
        out = out + np.asarray(beta, dtype=np.float64)
    return out


def _activation_out(arr: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Validate an activation destination against the promoted input."""
    if out.shape != arr.shape:
        raise ValueError(
            f"out must have shape {arr.shape}, got {out.shape}"
        )
    if out.dtype != arr.dtype:
        raise ValueError(
            f"out dtype {out.dtype} != activation dtype {arr.dtype}"
        )
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    return out


def relu(x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Rectified linear unit.

    Dtype-preserving.  With *out* the result is written in place (the
    destination may alias *x*), eliminating the per-call allocation on
    the serving hot path.
    """
    arr = np.asarray(x)
    if out is None:
        return np.maximum(arr, 0)
    return np.maximum(arr, 0, out=_activation_out(arr, out))


def gelu(x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, BERT-style).

    Promotes to float64.  The *out* path chains the same ufunc sequence
    in place -- bit-identical to the allocating form -- but *out* must
    not alias *x* (the input is read after *out* is first written).
    """
    arr = np.asarray(x, dtype=np.float64)
    if out is None:
        return 0.5 * arr * (
            1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (arr + 0.044715 * arr**3))
        )
    out = _activation_out(arr, out)
    if np.may_share_memory(out, arr):
        raise ValueError("gelu out must not alias x")
    # Same op order as the allocating branch, so results stay
    # bit-identical: inner = tanh(sqrt(2/pi) * (arr + 0.044715*arr**3)).
    inner = arr**3
    inner *= 0.044715
    inner += arr
    inner *= np.sqrt(2.0 / np.pi)
    np.tanh(inner, out=inner)
    inner += 1.0
    np.multiply(0.5, arr, out=out)
    np.multiply(out, inner, out=out)
    return out


def sigmoid(x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid, numerically stable on both tails.

    Promotes to float64.  *out* may alias *x*: each element is read
    exactly once before its slot is written.
    """
    arr = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(arr)
    else:
        out = _activation_out(arr, out)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def tanh(x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Hyperbolic tangent.  Promotes to float64; *out* may alias *x*."""
    arr = np.asarray(x, dtype=np.float64)
    if out is None:
        return np.tanh(arr)
    return np.tanh(arr, out=_activation_out(arr, out))


FUSIBLE_ACTIVATIONS: dict[str, object] = {
    "relu": relu,
    "gelu": gelu,
    "sigmoid": sigmoid,
    "tanh": tanh,
}
"""Activations the ``biqgemm`` engine can fuse into its epilogue.

Every entry accepts ``out=`` and, given the same float input, produces
results bit-identical to its allocating form -- the property the
fusion bit-identity tests pin.
"""


def activation_fn(name: str):
    """Look up a fusible activation by name."""
    try:
        return FUSIBLE_ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown fusible activation {name!r}; expected one of "
            f"{sorted(FUSIBLE_ACTIVATIONS)}"
        ) from None


def activation_result_dtype(name: str, dtype) -> np.dtype:
    """Result dtype of activation *name* applied to *dtype* input.

    ``relu`` preserves the input dtype; the transcendental activations
    promote to float64 (matching their allocating forms above).
    """
    activation_fn(name)  # validate
    if name == "relu":
        return np.dtype(dtype)
    return np.dtype(np.float64)
