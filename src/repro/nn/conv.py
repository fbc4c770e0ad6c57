"""2-D convolution lowered onto the GEMM engines via im2col.

The binary-coding quantization literature the paper builds on
(XNOR-Net, network sketching, LQ-Nets) targets CNNs; convolution lowers
to exactly the ``W_mat @ cols`` products BiQGEMM accelerates, with
``W_mat`` of shape ``(out_channels, in_channels * kh * kw)`` and one
column per output pixel -- so the *batch* dimension of the paper's
analysis becomes ``N * out_h * out_w``, typically large.  That makes
convolution the workload where ``backend="auto"`` earns its keep:
:class:`QuantConv2d` runs its GEMM through the same registry-dispatched
:class:`~repro.nn.linear.QuantLinear` machinery as every other layer,
and the planner routinely picks the dense path for the huge pixel
batches while the NLP layers stay on BiQGEMM.

Layout: NCHW activations, OIHW weights.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.nn.linear import QuantLinear, QuantSpec, _coerce_spec

__all__ = ["im2col", "conv2d_reference", "conv2d_gemm", "QuantConv2d"]


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ValueError(
            f"kernel {k} with stride {stride}, pad {pad} does not fit "
            f"input extent {size}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, *, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Unfold NCHW input into convolution columns.

    Returns ``(C * kh * kw, N * out_h * out_w)`` with columns ordered
    image-major then row-major over output pixels -- the orientation the
    GEMM engines consume directly.
    """
    check_positive_int(kh, "kh")
    check_positive_int(kw, "kw")
    check_positive_int(stride, "stride")
    if pad < 0:
        raise ValueError("pad must be >= 0")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError(f"x must be NCHW, got shape {arr.shape}")
    n, c, h, w = arr.shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    if pad:
        arr = np.pad(arr, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # Gather patches: shape (n, c, kh, kw, oh, ow).
    strides = arr.strides
    shape = (n, c, kh, kw, oh, ow)
    view = np.lib.stride_tricks.as_strided(
        arr,
        shape=shape,
        strides=(
            strides[0],
            strides[1],
            strides[2],
            strides[3],
            strides[2] * stride,
            strides[3] * stride,
        ),
        writeable=False,
    )
    cols = view.reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(
        cols.transpose(1, 0, 2).reshape(c * kh * kw, n * oh * ow)
    )


def conv2d_reference(
    x: np.ndarray, w: np.ndarray, *, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Direct-loop convolution oracle (NCHW x OIHW -> NCHW)."""
    xa = np.asarray(x, dtype=np.float64)
    wa = np.asarray(w, dtype=np.float64)
    if xa.ndim != 4 or wa.ndim != 4:
        raise ValueError("x must be NCHW and w must be OIHW")
    n, c, h, wdt = xa.shape
    oc, ic, kh, kw = wa.shape
    if ic != c:
        raise ValueError(f"channel mismatch: input {c}, weight {ic}")
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(wdt, kw, stride, pad)
    if pad:
        xa = np.pad(xa, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, oc, oh, ow))
    for img in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = xa[
                        img,
                        :,
                        i * stride : i * stride + kh,
                        j * stride : j * stride + kw,
                    ]
                    out[img, o, i, j] = (patch * wa[o]).sum()
    return out


def conv2d_gemm(
    x: np.ndarray, w: np.ndarray, *, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """im2col + dense GEMM convolution (float path)."""
    xa = np.asarray(x, dtype=np.float64)
    wa = np.asarray(w, dtype=np.float64)
    if xa.ndim != 4 or wa.ndim != 4:
        raise ValueError("x must be NCHW and w must be OIHW")
    n, c, h, wdt = xa.shape
    oc, ic, kh, kw = wa.shape
    if ic != c:
        raise ValueError(f"channel mismatch: input {c}, weight {ic}")
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(wdt, kw, stride, pad)
    cols = im2col(xa, kh, kw, stride=stride, pad=pad)
    w_mat = wa.reshape(oc, ic * kh * kw)
    out = w_mat @ cols  # (oc, n * oh * ow)
    return out.reshape(oc, n, oh, ow).transpose(1, 0, 2, 3)


class QuantConv2d:
    """BCQ-quantized convolution on a registry-dispatched engine.

    The OIHW weight is flattened to ``(out_channels, in*kh*kw)``,
    quantized per output channel (the BCQ convention for conv layers)
    and served through an inner :class:`~repro.nn.linear.QuantLinear`,
    so any registered backend -- including ``"auto"`` dispatch over the
    ``N * out_h * out_w`` pixel batch -- applies to convolutions with
    no conv-specific code.

    ``spec`` accepts a :class:`~repro.nn.linear.QuantSpec` or a
    :class:`~repro.api.QuantConfig` (its base spec).
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray | None = None,
        *,
        stride: int = 1,
        pad: int = 0,
        spec: QuantSpec | None = None,
    ):
        spec = _coerce_spec(spec)
        wa = np.asarray(weight, dtype=np.float64)
        if wa.ndim != 4:
            raise ValueError(f"weight must be OIHW, got shape {wa.shape}")
        check_positive_int(stride, "stride")
        if pad < 0:
            raise ValueError("pad must be >= 0")
        self.out_channels, self.in_channels, self.kh, self.kw = map(
            int, wa.shape
        )
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (self.out_channels,):
                raise ValueError(
                    f"bias must have shape ({self.out_channels},), "
                    f"got {bias.shape}"
                )
        self.bias = bias
        self.stride = stride
        self.pad = pad
        self.spec = spec
        # Bias is applied here after the NCHW reshape, not by the inner
        # linear layer.
        self._linear = QuantLinear(
            wa.reshape(self.out_channels, -1), spec=spec
        )

    def dequantized(self) -> np.ndarray:
        """Effective OIHW weight of the engine actually serving."""
        return self._linear.dequantized().reshape(
            self.out_channels, self.in_channels, self.kh, self.kw
        )

    @property
    def weight_nbytes(self) -> int:
        """Deployed bytes for the engine serving the batch hint."""
        return self._linear.weight_nbytes

    def planned_backend(self, batch: int = 1) -> str:
        """The backend the planner resolves at *batch* pixel columns."""
        return self._linear.planned_backend(batch)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Convolve NCHW input; returns NCHW output."""
        xa = np.asarray(x, dtype=np.float64)
        if xa.ndim != 4:
            raise ValueError(f"x must be NCHW, got shape {xa.shape}")
        if xa.shape[1] != self.in_channels:
            raise ValueError(
                f"input has {xa.shape[1]} channels, layer expects "
                f"{self.in_channels}"
            )
        n, _, h, w = xa.shape
        oh = _out_size(h, self.kh, self.stride, self.pad)
        ow = _out_size(w, self.kw, self.stride, self.pad)
        cols = im2col(xa, self.kh, self.kw, stride=self.stride, pad=self.pad)
        pixels = cols.shape[1]
        if pixels:
            out = self._linear.engine_for(pixels).matmul(cols)
        else:
            out = np.zeros((self.out_channels, 0))
        out = out.reshape(self.out_channels, n, oh, ow).transpose(1, 0, 2, 3)
        if self.bias is not None:
            out = out + self.bias[None, :, None, None]
        return out
