"""The ``compiled`` engine: per-shape specialized fused BiQGEMM traces.

Every per-call decision :meth:`repro.core.kernel.BiQGemm.matmul` makes
-- shape checks, reshape-vs-copy, tile selection, builder/query-path
dispatch, alpha casting, dtype promotion -- depends only on ``(m, n,
bits, mu, dtype, batch)``, all of which are known ahead of the first
call for a planned layer.  This module resolves them **once**, at
specialization time, into a resident *trace* per ``(dtype, batch)``:

- the trace fixes a :class:`repro.engine.native.Plan` for the native
  LUT query kernel (``_lutq.c``): the batch-invariant tile schedule
  (:meth:`BiQGemm.invariant_tiles`), the key matrix, the scales in the
  activation dtype and the fused bias;
- the table scratch and the output are resident on the trace, so a
  steady-state call is one native call that allocates nothing;
- the kernel folds every partial sum in the reference loop-query
  order, so every output bit matches the unfused engine at every
  batch;
- **epilogue fusion**: the layer bias is added inside the native call
  and the following activation (``relu``/``gelu``/``sigmoid``/
  ``tanh``, discovered at ``compile()`` time) runs right after it via
  ``out=``-aware ufunc chaining.

Anything outside the specialized envelope -- a dtype the kernel does
not compute in (float32 and float64 only), no native kernel on this
host, an unseen shape once the trace budget is spent, a batch above
:data:`TRACE_MAX_BATCH`, a concurrent call racing for the resident
buffers -- falls back to the inner batch-invariant :class:`BiQGemm`
plus a generic epilogue, which is bit-identical by construction; the
trace is purely a speed layer.

Registered as ``backend="compiled"`` with
``auto_candidate=False``: it is lossless but only enters a plan when a
caller extends the candidate list explicitly -- the fusion planning
pass in :meth:`repro.api.QuantModel.compile` does, for layers whose
following activation is fusible.
"""

from __future__ import annotations

import threading
from typing import Mapping

import numpy as np

from repro._util import check_matmul_out
from repro.core.kernel import BiQGemm
from repro.engine import native
from repro.engine.base import EngineBuildRequest
from repro.engine.registry import EngineEntry, register_engine
from repro.hw.costmodel import estimate_compiled

__all__ = [
    "CompiledKernelEngine",
    "TRACE_MAX_BATCH",
    "MAX_TRACES",
]

TRACE_MAX_BATCH = 64
"""Largest batch a trace is specialized for.

The compiled engine targets the GEMV/small-batch regime where the cost
model picks it; larger batches (where dense BLAS wins anyway) serve
through the inner engine fallback rather than holding huge resident
table buffers.
"""

MAX_TRACES = 8
"""Resident ``(dtype, batch)`` specializations per engine.

A serving loop sees a handful of exact batch sizes (the batcher
coalesces toward bucket boundaries); once the budget is spent, unseen
shapes fall back to the inner engine instead of growing memory without
bound.
"""


class _Trace:
    """One ``(dtype, batch)`` specialization run by the native kernel.

    Fixes the kernel's :class:`~repro.engine.native.Plan` (shape, tile
    width, pointers to the keys, scales and fused bias) and owns the
    resident table scratch and output buffer sized for this exact
    batch.  ``run`` is one native call: no shape checks, no dispatch,
    no allocation.
    """

    __slots__ = ("_kernel", "_plan", "_refs", "_y_addr", "tables", "y")

    def __init__(
        self, engine: "CompiledKernelEngine", dtype, batch: int, kernel
    ):
        inner = engine._inner
        dtype = np.dtype(dtype)
        m, n = inner.shape
        keys = np.ascontiguousarray(inner.key_matrix.keys)
        alphas = np.ascontiguousarray(inner._alphas_for(dtype))
        bias = engine._bias_col(dtype)
        tile_g = inner.invariant_tiles(dtype).tile_g
        self.tables = np.empty((tile_g, 1 << inner.mu, batch), dtype)
        self.y = np.empty((m, batch), dtype)
        self._y_addr = self.y.ctypes.data
        # The plan holds raw pointers: keep every array it points into.
        self._refs = (keys, alphas, bias)
        self._kernel = kernel
        self._plan = native.Plan(
            m=m,
            n=n,
            batch=batch,
            groups=keys.shape[2],
            tile_g=tile_g,
            mu=inner.mu,
            bits=inner.bits,
            fp64=int(dtype == np.float64),
            key_bytes=keys.itemsize,
            keys=keys.ctypes.data,
            alphas=alphas.ctypes.data,
            bias=None if bias is None else bias.ctypes.data,
            tables=self.tables.ctypes.data,
        )

    @property
    def nbytes(self) -> int:
        return self.y.nbytes + self.tables.nbytes

    def run(
        self, arr: np.ndarray, y_dest: np.ndarray | None = None
    ) -> np.ndarray:
        """Execute the trace on ``(n, batch)`` input *arr*.

        *arr* may be strided.  *y_dest*, when given, receives the
        pre-activation result directly (it must be a C-contiguous
        ``(m, batch)`` array in the trace dtype that does not alias
        *arr* -- the caller guarantees all three); otherwise the
        resident ``y`` buffer is used.  Bias, when fused, is folded in;
        the activation epilogue is the engine's job (it may change
        dtype).
        """
        if not arr.flags.aligned:
            arr = arr.copy()
        if y_dest is None:
            y, y_addr = self.y, self._y_addr
        else:
            y, y_addr = y_dest, y_dest.ctypes.data
        if self._kernel(self._plan, arr.ctypes.data, *arr.strides, y_addr):
            raise RuntimeError("native LUT query kernel rejected its plan")
        return y


class CompiledKernelEngine:
    """Per-shape specialized BiQGEMM with a fused bias+activation epilogue.

    Wraps a batch-invariant :class:`BiQGemm` (the correctness anchor
    and the fallback path) and serves hot calls through resident
    native traces (see the module docstring).  Satisfies the
    :class:`repro.engine.base.MatmulEngine` protocol.

    Parameters
    ----------
    inner:
        The compiled key-matrix kernel; must have ``batch_invariant``
        set (the constructor enforces it) so fallback and trace paths
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
    keyword argument opts the call out of the resident-trace fast path
    (traces are compiled for the bare call), so profiled calls take the
    fallback kernel -- phase timing and phase spans still cover them."""

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
        m = inner.shape[0]
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
        # (dtype, batch) -> trace; None marks a specialization the
        # native kernel can't run here, served by the fallback.
        self._traces: dict[tuple[str, int], _Trace | None] = {}
        self._bias_cols: dict[str, np.ndarray] = {}
        # One runner at a time owns the resident buffers; a concurrent
        # call on a shared engine takes the (bit-identical) fallback
        # instead of blocking or corrupting.
        self._run_lock = threading.Lock()

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
    # specialization
    # ------------------------------------------------------------------
    def _new_trace(self, dtype: np.dtype, batch: int) -> _Trace | None:
        kernel = native.load() if dtype in native.DTYPES else None
        if kernel is None:
            return None
        return _Trace(self, dtype, batch, kernel)

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

    def specialize(self, batch: int, dtype) -> bool:
        """Build (or fetch) the trace for an exact ``(batch, dtype)``.

        Returns True when the specialization is recorded afterwards;
        False when the shape is outside the specialization envelope
        (batch too large, trace budget spent) and calls at it will use
        the fallback path.  A recorded specialization holds native
        buffers only when the native kernel serves *dtype* on this
        host; otherwise its calls take the fallback too.
        """
        batch = int(batch)
        dtype = np.dtype(dtype)
        if batch < 1 or batch > TRACE_MAX_BATCH:
            return False
        key = (dtype.str, batch)
        with self._run_lock:
            if key in self._traces:
                return True
            if len(self._traces) >= MAX_TRACES:
                return False
            self._traces[key] = self._new_trace(dtype, batch)
            return True

    def specialization(self) -> dict:
        """The resident specialization plan, JSON-able.

        ``{"batches": [...], "dtypes": [...]}`` -- what the v3 artifact
        caches so :func:`repro.api.load` can rehydrate compiled traces
        without re-planning (see :meth:`prebuild`).
        """
        with self._run_lock:
            keys = list(self._traces)
        return {
            "batches": sorted({b for _, b in keys}),
            "dtypes": sorted({s for s, _ in keys}),
        }

    def prebuild(self, plan: Mapping) -> None:
        """Rebuild traces from a cached :meth:`specialization` plan."""
        for s in plan.get("dtypes", ()):
            for b in plan.get("batches", ()):
                self.specialize(int(b), np.dtype(str(s)))

    @property
    def trace_count(self) -> int:
        """Recorded ``(dtype, batch)`` specializations (observability)."""
        with self._run_lock:
            return len(self._traces)

    def trace_nbytes(self) -> int:
        """Resident trace buffer bytes (observability)."""
        with self._run_lock:
            return sum(
                t.nbytes for t in self._traces.values() if t is not None
            )

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
        """``activation(W_quantized @ x + bias)`` via a resident trace.

        Same input/output conventions as :meth:`BiQGemm.matmul`, except
        that with a fused activation the result (and any *out*) is in
        :meth:`result_dtype` of the input's float dtype.  Extra keyword
        arguments (explicit tiles, builders, threads, profilers) opt
        out of the trace and delegate to the inner kernel, epilogue
        still applied.
        """
        arr = np.asarray(x)
        vector_in = arr.ndim == 1
        if vector_in:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"x must be 1-D or 2-D, got shape {arr.shape}")
        n = self._inner.shape[1]
        if arr.shape[0] != n:
            raise ValueError(
                f"x has {arr.shape[0]} rows, engine expects n={n}"
            )
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        m = self.shape[0]
        batch = arr.shape[1]
        rdt = self.result_dtype(arr.dtype)
        res2 = None
        if out is not None:
            res2 = check_matmul_out(out, m, batch, rdt, arr, vector_in)

        trace = None
        locked = False
        if not kwargs and 1 <= batch <= TRACE_MAX_BATCH:
            locked = self._run_lock.acquire(blocking=False)
            if locked:
                key = (arr.dtype.str, batch)
                if key not in self._traces and len(self._traces) < MAX_TRACES:
                    self._traces[key] = self._new_trace(arr.dtype, batch)
                trace = self._traces.get(key)
        try:
            if trace is not None:
                # Pre-activation result straight into the caller's
                # buffer when dtypes line up (no extra copy).
                direct = (
                    res2 is not None
                    and self.activation is None
                    and res2.dtype == arr.dtype
                    and res2.flags.c_contiguous
                )
                y = trace.run(arr, y_dest=res2 if direct else None)
            else:
                y = self._inner.matmul(arr, **kwargs)
                bias_col = self._bias_col(y.dtype)
                if bias_col is not None:
                    y += bias_col
            # The epilogue must read y before the lock drops: a
            # resident y belongs to the next trace run after that.
            result = self._epilogue(y, res2, resident=trace is not None)
        finally:
            if locked:
                self._run_lock.release()
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
        self,
        y: np.ndarray,
        res2: np.ndarray | None,
        *,
        resident: bool,
    ) -> np.ndarray:
        """Apply the activation (bias is already folded into *y*).

        *y* is the pre-activation ``(m, b)`` block -- the resident
        trace buffer, the caller's *res2* itself (direct-write case),
        or a fallback result.  Returns the array holding the final
        values; the caller may not own *y*, so without *res2* a
        resident *y* is copied out.
        """
        if self._activation_fn is None:
            if res2 is None:
                return y.copy() if resident else y
            if res2 is not y:
                np.copyto(res2, y)
            return res2
        from repro.nn.functional import activation_result_dtype

        rdt = activation_result_dtype(self.activation, y.dtype)
        if res2 is None:
            res2 = np.empty(y.shape, rdt)
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
            "per-shape specialized BiQGEMM traces with a fused "
            "bias+activation epilogue"
        ),
        export=_export_compiled,
        restore=_restore_compiled,
    )
)
