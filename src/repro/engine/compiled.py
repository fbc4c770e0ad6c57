"""The ``compiled`` engine: BiQGEMM on the native LUT kernel.

Every per-call decision :meth:`repro.core.kernel.BiQGemm.matmul` makes
-- shape checks, reshape-vs-copy, tile selection, builder/query-path
dispatch, alpha casting, dtype promotion -- depends only on ``(m, n,
bits, mu, dtype)``.  This engine resolves them **once per dtype** into
a :class:`repro.engine.native.Plan` for the native LUT kernel
(``_lutq.c``): the batch-invariant tile schedule
(:meth:`BiQGemm.invariant_tiles`), the key matrix, the scales in the
activation dtype and the fused bias.  A call then is one native call:

- the batch, the input and the output are call arguments, so one plan
  serves every batch, and concurrent calls may share it;
- the output is allocated per call and returned to the caller;
- the table scratch comes from a small lock-protected pool shared by
  every engine in the process (:class:`_ScratchPool`).  The kernel
  runs the batch in fixed column chunks, so one layer's scratch has
  the same size at every batch, and the pool holds at most one buffer
  per concurrently running call;
- the kernel folds every partial sum in the reference loop-query
  order, so every output bit matches the inner batch-invariant
  :class:`BiQGemm` at every batch: the engine is batch-invariant;
- **epilogue fusion**: the layer bias is added inside the native call
  and the following activation (``relu``/``gelu``/``sigmoid``/
  ``tanh``, discovered at ``compile()`` time) runs right after it via
  ``out=``-aware ufunc chaining.

A dtype the kernel does not compute in (float32 and float64 only), an
empty batch, explicit kernel keyword arguments, or a host where the
native kernel cannot be built all serve through the inner
batch-invariant :class:`BiQGemm` plus a generic epilogue, which is
bit-identical by construction.

Registered as ``backend="compiled"`` with ``auto_candidate=False``:
``backend="auto"`` and :func:`~repro.engine.lossless_engines` keep
their candidate pool, and :meth:`repro.api.QuantModel.compile` adds the
engine explicitly, so it is the LUT engine of every compiled layer.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Mapping

import numpy as np

from repro._util import check_matmul_out
from repro.core.kernel import BiQGemm
from repro.engine import native
from repro.engine.base import EngineBuildRequest
from repro.engine.registry import EngineEntry, register_engine
from repro.hw.costmodel import estimate_compiled

__all__ = ["CompiledKernelEngine"]


def _address(arr: np.ndarray) -> int:
    """The address of ``arr[0, 0]``.

    ``arr.ctypes.data`` builds a helper object per call and costs about
    three times as much as ``ctypes.c_char.from_buffer``, which serves
    the writable contiguous arrays of the hot path.
    """
    flags = arr.flags
    if flags.writeable:
        if flags.c_contiguous:
            return ctypes.addressof(ctypes.c_char.from_buffer(arr))
        if flags.f_contiguous:
            return ctypes.addressof(ctypes.c_char.from_buffer(arr.T))
    return arr.ctypes.data


class _ScratchPool:
    """Table scratch for native calls, shared by every engine.

    :meth:`take` pops a free buffer, replacing it with a larger one when
    it is too small, and :meth:`give` puts it back.  So the pool never
    holds more buffers than calls have run at once, and they grow to the
    largest scratch any layer needs.  A thread-local scratch would not
    do: prefill runs on short-lived request threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._free: list[tuple[np.ndarray, int]] = []

    def take(self, nbytes: int) -> tuple[np.ndarray, int]:
        """A free ``(buffer, address)`` of at least *nbytes*."""
        with self._lock:
            if self._free:
                entry = self._free.pop()
                if entry[0].nbytes >= nbytes:
                    return entry
        # float64 elements: aligned for either kernel dtype.
        buf = np.empty(-(-nbytes // 8), np.float64)
        return buf, _address(buf)

    def give(self, entry: tuple[np.ndarray, int]) -> None:
        with self._lock:
            self._free.append(entry)


_SCRATCH = _ScratchPool()

_UNBUILT = object()


class _NativePlan:
    """One layer in one dtype on the native kernel, for every batch.

    Holds the kernel's :class:`~repro.engine.native.Plan` and the arrays
    its pointers reference.  ``run`` allocates the output, borrows table
    scratch from the shared pool and makes one native call.
    """

    __slots__ = ("_dtype", "_m", "_plan", "_plan_ref", "_refs", "_run",
                 "_scratch_bytes")

    def __init__(self, engine: "CompiledKernelEngine", dtype, kernel):
        inner = engine._inner
        dtype = np.dtype(dtype)
        m, n = inner.shape
        keys = np.ascontiguousarray(inner.key_matrix.keys)
        alphas = np.ascontiguousarray(inner._alphas_for(dtype))
        bias = engine._bias_col(dtype)
        # The plan holds raw pointers: keep every array it points into.
        self._refs = (keys, alphas, bias)
        self._plan = native.Plan(
            m=m,
            n=n,
            groups=keys.shape[2],
            tile_g=inner.invariant_tiles(dtype).tile_g,
            mu=inner.mu,
            bits=inner.bits,
            fp64=int(dtype == np.float64),
            key_bytes=keys.itemsize,
            keys=keys.ctypes.data,
            alphas=alphas.ctypes.data,
            bias=None if bias is None else bias.ctypes.data,
        )
        self._plan_ref = ctypes.byref(self._plan)
        self._scratch_bytes = kernel.scratch_bytes(self._plan_ref)
        if self._scratch_bytes < 0:
            raise RuntimeError("native LUT query kernel rejected its plan")
        self._run = kernel.run
        self._dtype = dtype
        self._m = m

    def run(
        self, arr: np.ndarray, y: np.ndarray | None = None
    ) -> np.ndarray:
        """The pre-activation result for ``(n, batch)`` input *arr*.

        *arr* may be strided; the batch must be at least 1.  *y*, when
        given, receives the result directly (it must be a C-contiguous
        ``(m, batch)`` array in the plan dtype that does not alias
        *arr* -- the caller guarantees all three).  Bias, when fused,
        is folded in; the activation epilogue is the engine's job (it
        may change dtype).
        """
        if not arr.flags.aligned:
            arr = arr.copy()
        batch = arr.shape[1]
        if y is None:
            y = np.empty((self._m, batch), self._dtype)
        # A buffer lost to an exception here is only garbage collected.
        scratch = _SCRATCH.take(self._scratch_bytes)
        rc = self._run(
            self._plan_ref,
            batch,
            scratch[1],
            _address(arr),
            *arr.strides,
            _address(y),
        )
        _SCRATCH.give(scratch)
        if rc:
            raise RuntimeError("native LUT query kernel rejected its call")
        return y


class CompiledKernelEngine:
    """BiQGEMM on the native LUT kernel with a fused bias+activation
    epilogue.

    Wraps a batch-invariant :class:`BiQGemm` (the correctness anchor
    and the fallback path) and serves calls through one native plan
    per dtype (see the module docstring).  Satisfies the
    :class:`repro.engine.base.MatmulEngine` protocol.

    Parameters
    ----------
    inner:
        The compiled key-matrix kernel; must have ``batch_invariant``
        set (the constructor enforces it) so fallback and native paths
        are bit-identical.
    bias:
        Optional ``(m,)`` layer bias folded into the query pass.
    activation:
        Optional fusible activation name
        (:data:`repro.nn.functional.FUSIBLE_ACTIVATIONS`) applied in
        the epilogue via ``out=`` chaining.
    """

    backend_name = "compiled"
    """Registry key of this engine in :mod:`repro.engine`."""

    accepts_profiler = True
    """``matmul`` forwards ``profiler=`` to the inner kernel.  Any
    keyword argument opts the call out of the native kernel, so
    profiled calls take the fallback kernel -- phase timing and phase
    spans still cover them."""

    batch_invariant = True
    """Every column's bits are independent of the batch it came in:
    the native kernel and the fallback both fold in the inner
    batch-invariant kernel's order.  So a batch-invariant
    :class:`~repro.nn.linear.QuantLinear` runs a whole decode tick or
    prefill in one call."""

    def __init__(
        self,
        inner: BiQGemm,
        *,
        bias: np.ndarray | None = None,
        activation: str | None = None,
    ):
        if not isinstance(inner, BiQGemm):
            raise TypeError(
                f"inner must be a BiQGemm, got {type(inner).__name__}"
            )
        inner.batch_invariant = True
        self._inner = inner
        m, self._n = inner.shape
        if bias is not None:
            bias = np.asarray(bias)
            if bias.shape != (m,):
                raise ValueError(
                    f"bias must have shape ({m},), got {bias.shape}"
                )
            if not np.issubdtype(bias.dtype, np.floating):
                bias = bias.astype(np.float64)
        self.bias = bias
        if activation is not None:
            # Lazy import: repro.engine must stay importable without
            # triggering the nn package (which imports repro.engine).
            from repro.nn.functional import activation_fn

            self._activation_fn = activation_fn(activation)
        else:
            self._activation_fn = None
        self.activation = activation
        # dtype -> native plan; None when the native kernel can't serve
        # that dtype here (calls take the fallback).  Built on first
        # use; a race builds two equal plans, and either serves.
        self._plans: dict[np.dtype, _NativePlan | None] = {}
        self._bias_cols: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(m, n)`` of the represented weight matrix."""
        return self._inner.shape

    @property
    def bits(self) -> int:
        return self._inner.bits

    @property
    def mu(self) -> int:
        return self._inner.mu

    @property
    def alphas(self) -> np.ndarray:
        return self._inner.alphas

    @property
    def key_matrix(self):
        return self._inner.key_matrix

    @property
    def inner(self) -> BiQGemm:
        """The wrapped batch-invariant kernel (the fallback path)."""
        return self._inner

    @property
    def fused_epilogue(self) -> bool:
        """Whether this engine applies bias/activation itself.

        The layer stack checks this: when True it must *not* add its
        own bias or activation on top.  A bare engine (no bias, no
        activation -- e.g. built by the autotuner from a weight-only
        request) behaves exactly like ``biqgemm`` and reports False.
        """
        return self.bias is not None or self.activation is not None

    @property
    def weight_nbytes(self) -> int:
        """Bytes of compiled weight state (keys + scales + fused bias)."""
        total = self._inner.weight_nbytes
        if self.bias is not None:
            total += self.bias.nbytes
        return total

    def result_dtype(self, dtype) -> np.dtype:
        """Output dtype for activations of *dtype* (epilogue included)."""
        dtype = np.dtype(dtype)
        if self.activation is None:
            return dtype
        from repro.nn.functional import activation_result_dtype

        return activation_result_dtype(self.activation, dtype)

    def op_counts(self, batch: int) -> dict[str, int]:
        """Inner kernel counts plus fused epilogue element ops."""
        counts = dict(self._inner.op_counts(batch))
        m = self.shape[0]
        epilogue = 0
        if self.bias is not None:
            epilogue += m * batch
        if self.activation is not None:
            epilogue += m * batch
        counts["epilogue_ops"] = epilogue
        return counts

    # ------------------------------------------------------------------
    # native plans
    # ------------------------------------------------------------------
    def _native_plan(self, dtype: np.dtype) -> _NativePlan | None:
        """Build (and record) the native plan for *dtype*."""
        kernel = native.load() if dtype in native.DTYPES else None
        plan = None if kernel is None else _NativePlan(self, dtype, kernel)
        self._plans[dtype] = plan
        return plan

    def _bias_col(self, dtype: np.dtype) -> np.ndarray | None:
        """The fused bias as an ``(m, 1)`` column in *dtype*, cached."""
        if self.bias is None:
            return None
        key = dtype.str
        col = self._bias_cols.get(key)
        if col is None:
            col = np.ascontiguousarray(
                self.bias.astype(dtype, copy=False)[:, None]
            )
            self._bias_cols[key] = col
        return col

    # ------------------------------------------------------------------
    # multiplication
    # ------------------------------------------------------------------
    def matmul(
        self,
        x: np.ndarray,
        *,
        out: np.ndarray | None = None,
        **kwargs,
    ) -> np.ndarray:
        """``activation(W_quantized @ x + bias)`` on the native kernel.

        Same input/output conventions as :meth:`BiQGemm.matmul`, except
        that with a fused activation the result (and any *out*) is in
        :meth:`result_dtype` of the input's float dtype.  Extra keyword
        arguments (explicit tiles, builders, threads, profilers) opt
        out of the native kernel and delegate to the inner kernel,
        epilogue still applied.
        """
        arr = np.asarray(x)
        vector_in = arr.ndim == 1
        if vector_in:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"x must be 1-D or 2-D, got shape {arr.shape}")
        n, batch = arr.shape
        if n != self._n:
            raise ValueError(f"x has {n} rows, engine expects n={self._n}")
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        res2 = None
        if out is not None:
            res2 = check_matmul_out(
                out,
                self.shape[0],
                batch,
                self.result_dtype(arr.dtype),
                arr,
                vector_in,
            )

        plan = None
        if not kwargs and batch:
            plan = self._plans.get(arr.dtype, _UNBUILT)
            if plan is _UNBUILT:
                plan = self._native_plan(arr.dtype)
        if plan is not None:
            # Pre-activation result straight into the caller's buffer
            # when dtypes line up (no extra copy).
            direct = (
                res2 is not None
                and self.activation is None
                and res2.dtype == arr.dtype
                and res2.flags.c_contiguous
            )
            y = plan.run(arr, res2 if direct else None)
        else:
            y = self._inner.matmul(arr, **kwargs)
            bias_col = self._bias_col(y.dtype)
            if bias_col is not None:
                y += bias_col
        result = self._epilogue(y, res2)
        if out is not None:
            return out
        return result[:, 0] if vector_in else result

    def __call__(self, x: np.ndarray, **kwargs) -> np.ndarray:
        return self.matmul(x, **kwargs)

    def matmul_reference(self, x: np.ndarray) -> np.ndarray:
        """Slow oracle: inner Eq. 2 reference plus a plain epilogue."""
        y = self._inner.matmul_reference(x)
        vector_in = np.asarray(x).ndim == 1
        cols = y[:, None] if vector_in else y
        bias_col = self._bias_col(cols.dtype)
        if bias_col is not None:
            cols = cols + bias_col
        if self._activation_fn is not None:
            cols = self._activation_fn(cols)
        return cols[:, 0] if vector_in else cols

    def _epilogue(
        self, y: np.ndarray, res2: np.ndarray | None
    ) -> np.ndarray:
        """Apply the activation (bias is already folded into *y*).

        *y* is the pre-activation ``(m, b)`` block, owned by this call
        (or the caller's *res2* itself, in the direct-write case).
        Returns the array holding the final values.
        """
        if self._activation_fn is None:
            if res2 is None:
                return y
            if res2 is not y:
                np.copyto(res2, y)
            return res2
        if res2 is None:
            return self._activation_fn(y)
        return self._activation_fn(y, out=res2)


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
def _build_compiled(request: EngineBuildRequest) -> CompiledKernelEngine:
    inner = BiQGemm.from_bcq(request.get_bcq(), mu=request.spec.mu)
    inner.batch_invariant = True
    return CompiledKernelEngine(
        inner,
        bias=request.bias,
        activation=getattr(request.spec, "fuse", None),
    )


def _cost_compiled(machine, m, n, b, spec):
    return estimate_compiled(
        machine,
        m,
        n,
        b,
        bits=spec.bits,
        mu=spec.mu,
        fuse=getattr(spec, "fuse", None),
    )


def _export_compiled(engine: CompiledKernelEngine) -> dict:
    state = {
        "keys": engine.key_matrix.keys,
        "alphas": engine.alphas,
        "mu": int(engine.mu),
        "n": int(engine.shape[1]),
    }
    if engine.bias is not None:
        state["bias"] = engine.bias
    if engine.activation is not None:
        state["activation"] = np.bytes_(engine.activation.encode("ascii"))
    return state


def _decode_str(value) -> str:
    raw = np.asarray(value).item()
    if isinstance(raw, bytes):
        return raw.decode("ascii")
    return str(raw)


def _restore_compiled(state: Mapping) -> CompiledKernelEngine:
    from repro.core.keys import KeyMatrix

    km = KeyMatrix(
        keys=np.asarray(state["keys"]), mu=int(state["mu"]), n=int(state["n"])
    )
    inner = BiQGemm(km, alphas=np.asarray(state["alphas"]))
    inner.batch_invariant = True
    bias = state.get("bias")
    if bias is not None:
        bias = np.asarray(bias)
    activation = state.get("activation")
    if activation is not None:
        activation = _decode_str(activation)
    return CompiledKernelEngine(inner, bias=bias, activation=activation)


register_engine(
    EngineEntry(
        name="compiled",
        build=_build_compiled,
        cost=_cost_compiled,
        lossless=True,
        auto_candidate=False,
        description=(
            "BiQGEMM on the native LUT kernel with a fused "
            "bias+activation epilogue"
        ),
        export=_export_compiled,
        restore=_restore_compiled,
    )
)
