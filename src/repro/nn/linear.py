"""Linear layers with registry-dispatched matmul backends.

:class:`Linear` is the dense float reference.  :class:`QuantLinear`
quantizes its weight with BCQ at construction and forwards its product
to whatever engine the :mod:`repro.engine` registry resolves for its
:class:`~repro.engine.base.QuantSpec` -- by name (``"biqgemm"``,
``"compiled"``, ``"dense"``, ``"int8"``, or anything registered later),
or via the cost-model planner with ``backend="auto"``.  With ``auto``
and no ``batch_hint``, the layer re-plans per call from the observed
batch, so a single layer serves the GEMV decode regime on BiQGEMM and
large-batch scoring on dense BLAS, exactly the situational-winner
behaviour of the paper's Section V; compiled engines are cached per
backend, and plans come from the process-wide plan cache.  The paper's
sGEMM, unpack-then-GEMM and XNOR kernels are paper-bench baselines in
:mod:`repro.gemm`, not serving engines, so no layer runs them.

``spec=`` selects the quantization behaviour: a
:class:`~repro.engine.base.QuantSpec`, or a
:class:`~repro.api.QuantConfig` (model-level defaults; per-layer glob
overrides apply when the layer is built through
:func:`repro.api.quantize`).

Layer convention: activations are row vectors, ``y = x @ W^T + bias``
with ``x`` shaped ``(..., n)`` and ``W`` shaped ``(m, n)``.  Internally
the engines use the paper's column orientation; the layer handles the
transposes.  Floating input dtypes are preserved end to end: engine
outputs follow the activation dtype and the bias is cast to the output
dtype before addition (it is stored in its own floating dtype, never
silently coerced to float64).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np

from repro._util import as_2d_float
from repro.obs import runtime as _obs
from repro.engine import (
    AUTO_BACKEND,
    Backend,
    EngineBuildRequest,
    MatmulEngine,
    QuantSpec,
    build_engine,
    engine_entry,
    resolve_backend,
    validate_spec,
    weight_required,
)
from repro.quant.bcq import BCQTensor

__all__ = [
    "Linear",
    "QuantLinear",
    "QuantSpec",
    "Backend",
    "make_linear",
    "split_builder_spec",
]

# Sentinel for pin_backend(fuse=...): "leave the spec's fuse as is".
_KEEP = object()


def _check_bias(bias, m: int):
    """Validate a bias vector, preserving its floating dtype.

    Integer/bool biases are promoted to float64; float32/float16 biases
    stay as given so low-precision models keep their dtype end to end.
    """
    if bias is None:
        return None
    arr = np.asarray(bias)
    if arr.shape != (m,):
        raise ValueError(f"bias must have shape ({m},), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


def _add_bias(out: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """Bias addition in the output's dtype (no silent upcast)."""
    if bias is None:
        return out
    return out + bias.astype(out.dtype, copy=False)


def _coerce_spec(spec) -> QuantSpec:
    """Resolve the accepted ``spec`` spellings to one ``QuantSpec``.

    ``spec`` may be a :class:`QuantSpec`, a
    :class:`~repro.api.QuantConfig` (its base spec is used -- per-layer
    overrides need the named-model path, :func:`repro.api.quantize`),
    or ``None`` (the default spec).
    """
    if spec is None:
        return QuantSpec()
    if isinstance(spec, QuantSpec):
        return spec
    from repro.api.config import QuantConfig

    if isinstance(spec, QuantConfig):
        return spec.base_spec()
    raise TypeError(
        f"spec must be a QuantSpec or QuantConfig, got {type(spec).__name__}"
    )


def split_builder_spec(spec):
    """``(QuantSpec | None, QuantConfig | None)`` from a builder's
    ``spec`` argument.

    Model builders (transformer/LSTM/seq2seq stacks) accept either a
    per-layer :class:`QuantSpec` (threaded to every projection) or a
    whole-model :class:`~repro.api.QuantConfig`; in the config case the
    builder constructs float layers first and then quantizes itself in
    place through :func:`repro.api.apply_config`, so glob overrides see
    the real layer paths.
    """
    if spec is None or isinstance(spec, QuantSpec):
        return spec, None
    from repro.api.config import QuantConfig

    if isinstance(spec, QuantConfig):
        return None, spec
    raise TypeError(
        f"spec must be a QuantSpec or QuantConfig, got {type(spec).__name__}"
    )


class Linear:
    """Dense float linear layer: ``y = x @ W^T + bias``.

    Floating activation dtypes are preserved: the weight is cast (and
    cached) per activation dtype, mirroring the quantized engines.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None = None):
        self.weight = as_2d_float(weight, "weight")
        self.bias = _check_bias(bias, self.weight.shape[0])
        self._weight_cache: dict[np.dtype, np.ndarray] = {}

    @property
    def shape(self) -> tuple[int, int]:
        """Weight shape ``(m, n)``: maps ``n`` features to ``m``."""
        return tuple(self.weight.shape)  # type: ignore[return-value]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply to ``(..., n)`` activations; returns ``(..., m)``."""
        arr = np.asarray(x)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        w = self._weight_cache.get(arr.dtype)
        if w is None:
            w = self.weight.astype(arr.dtype, copy=False)
            self._weight_cache[arr.dtype] = w
        out = arr @ w.T
        return _add_bias(out, self.bias)


class QuantLinear:
    """BCQ-quantized linear layer with a registry-dispatched engine.

    The float weight is quantized once at construction (the expensive
    offline step) and then dropped unless a reachable backend declares
    it needs the original (matching deployment, where only compiled
    state ships).  Engines compile lazily on first use and are cached
    per backend name, so an ``"auto"`` layer that serves two batch
    regimes keeps both compiled engines without re-quantizing.
    ``dequantized`` reconstructs the effective weight for analysis.

    Besides ``spec=QuantSpec(...)``, the constructor accepts a
    :class:`~repro.api.QuantConfig` (its base spec).
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray | None = None,
        *,
        spec: QuantSpec | None = None,
    ):
        spec = _coerce_spec(spec)
        w = as_2d_float(weight, "weight")
        self.bias = _check_bias(bias, w.shape[0])
        validate_spec(spec)
        self.spec = spec
        self._request = EngineBuildRequest(spec=spec, weight=w, bias=self.bias)
        if not weight_required(spec):
            # Solves BCQ (the state every reachable backend builds
            # from) and drops the float weight.  Backends that fit
            # their own grid to the float weight (int8) skip the BCQ
            # solve entirely unless it is asked for.
            self._request.release_weight()
        self._shape = (int(w.shape[0]), int(w.shape[1]))
        self._engines: dict[str, MatmulEngine] = {}
        self._build_lock = threading.Lock()

    @classmethod
    def from_engine(
        cls,
        engine: MatmulEngine,
        *,
        spec: QuantSpec,
        bias: np.ndarray | None = None,
    ) -> "QuantLinear":
        """Rehydrate a layer around an already-compiled engine.

        The deserialization path of the v3 whole-model artifact: no
        float weight exists and no quantization runs.  ``spec.backend``
        must be the concrete backend *engine* implements.  When the
        engine exposes its BCQ state the layer can still compile other
        BCQ-derived backends; otherwise it serves exactly this one.
        """
        if AUTO_BACKEND == spec.backend:
            raise ValueError(
                "from_engine needs a concrete spec.backend naming the "
                "compiled engine"
            )
        engine_entry(spec.backend)
        obj = cls.__new__(cls)
        m, n = engine.shape
        obj.bias = _check_bias(bias, int(m))
        obj.spec = spec
        bcq = getattr(engine, "bcq", None)
        obj._request = (
            EngineBuildRequest(spec=spec, bcq=bcq, bias=obj.bias)
            if bcq is not None
            else None
        )
        obj._shape = (int(m), int(n))
        obj._engines = {spec.backend: engine}
        obj._build_lock = threading.Lock()
        return obj

    def with_spec(self, spec: QuantSpec) -> "QuantLinear":
        """A layer serving the same quantized weight under a new spec.

        The model-level re-spec path (:func:`repro.api.quantize` over an
        already-quantized model): when *spec* agrees with the solved
        quantization (``bits``/``method``) the expensive BCQ state is
        shared and nothing re-runs; when the original float weight is
        still held the layer is rebuilt from it; otherwise changing the
        quantization itself is refused -- re-quantizing a reconstruction
        would silently compound error.
        """
        validate_spec(spec)
        if self._request is None:
            raise ValueError(
                "cannot re-spec a layer restored from a compiled artifact"
            )
        if self._request.weight is not None:
            return QuantLinear(self._request.weight, self.bias, spec=spec)
        if (spec.bits, spec.method) != (self.spec.bits, self.spec.method):
            raise ValueError(
                f"layer is already quantized at bits={self.spec.bits} "
                f"method={self.spec.method!r}; a config asking for "
                f"bits={spec.bits} method={spec.method!r} would "
                "re-quantize a reconstruction.  Build the model float "
                "(spec=None) and quantize it through repro.api instead."
            )
        obj = QuantLinear.__new__(QuantLinear)
        obj.bias = self.bias
        obj.spec = spec
        obj._request = EngineBuildRequest(
            spec=spec, bcq=self._request.get_bcq(), bias=self.bias
        )
        obj._shape = self._shape
        obj._engines = {}
        obj._build_lock = threading.Lock()
        obj._batch_invariant = self._batch_invariant
        return obj

    # Class-level default so every construction path (__init__,
    # from_engine, with_spec, clone_shared via __new__) starts
    # non-invariant without each having to set it.
    _batch_invariant = False

    @property
    def batch_invariant(self) -> bool:
        """Whether this layer guarantees column-wise bit-identity.

        In batch-invariant mode every activation column's result is
        bit-identical whether it arrives alone (a decode step's GEMV)
        or batched with others (the prefill GEMM) -- the contract the
        KV-cache bit-identity tests pin.  Every call plans at batch 1
        (``engine_for(1)``), so an ``auto`` spec cannot route a prefill
        onto a different engine than the decode-step GEMV; on that
        engine, invariant-by-construction backends
        (``engine.batch_invariant``) run batched natively while the
        rest fall back to one engine call per column for multi-column
        inputs, trading batched throughput for invariance.  Single
        columns always take the engine's native path.
        """
        return self._batch_invariant

    def set_batch_invariant(self, flag: bool = True) -> None:
        """Enable (or disable) batch-invariant mode (see
        :attr:`batch_invariant`).  Flipped by the decode machinery
        (:func:`repro.gen.model.mark_batch_invariant`); plain batched
        serving keeps the default off."""
        self._batch_invariant = bool(flag)

    def clone_shared(self) -> "QuantLinear":
        """A layer sharing this one's compiled engines and quantized
        state, with independent mutable bookkeeping.

        The serving replica path (:meth:`repro.api.CompiledModel.clone`):
        compiled engines are immutable after build and their ``matmul``
        holds no per-call state, so replicas can share them -- but each
        replica gets its own engine dict and build lock, so a worker
        thread lazily compiling an additional backend never mutates a
        dict another thread is reading.
        """
        obj = QuantLinear.__new__(QuantLinear)
        obj.bias = self.bias
        obj.spec = self.spec
        obj._request = self._request
        obj._shape = self._shape
        obj._engines = dict(self._engines)
        obj._build_lock = threading.Lock()
        obj._batch_invariant = self._batch_invariant
        return obj

    @property
    def shape(self) -> tuple[int, int]:
        """Weight shape ``(m, n)``."""
        return self._shape

    @property
    def bcq(self) -> BCQTensor:
        """The BCQ representation (solved on first access)."""
        if self._request is None:
            raise ValueError(
                "layer was restored from a compiled artifact without BCQ "
                "state"
            )
        return self._request.get_bcq()

    def dequantized(self) -> np.ndarray:
        """Effective dense weight of the engine actually serving.

        Backends that build from BCQ state all share the layer's BCQ
        reconstruction (no engine compile needed); backends that fit
        their own grid to the float weight (int8) report the engine's
        effective weight.
        """
        if self._request is not None and not weight_required(self.spec):
            return self.bcq.dequantize()
        engine = self.engine_for(self.spec.batch_hint or 1)
        engine_dequantize = getattr(engine, "dequantized", None)
        if engine_dequantize is not None:
            return engine_dequantize()
        engine_bcq = getattr(engine, "bcq", None)
        if engine_bcq is not None:
            return engine_bcq.dequantize()
        if self._request is not None:
            return self.bcq.dequantize()
        raise ValueError(
            f"backend {self.spec.backend!r} restored from a compiled "
            "artifact carries no dequantizable state"
        )

    def planned_backend(self, batch: int = 1) -> str:
        """The concrete backend this layer would run at *batch* columns."""
        return resolve_backend(self.spec, *self._shape, batch)

    def pin_backend(
        self,
        backend: str,
        *,
        batch_hint: int | None = None,
        fuse: str | None = _KEEP,
    ) -> None:
        """Freeze this layer onto *backend* (the compile step's pin).

        Replaces the spec's backend (and ``batch_hint``) so every later
        call resolves to the pinned engine without consulting the
        planner -- plans survive :func:`~repro.engine.clear_plan_cache`.
        Already-compiled engines stay cached.

        *fuse* sets the epilogue activation fused into a ``"compiled"``
        engine (the fusion planning pass of
        :meth:`repro.api.QuantModel.compile`).  Omitting it keeps the
        spec's current value; passing a different value evicts any
        cached ``"compiled"`` engine, which baked the old epilogue in
        at build time.
        """
        engine_entry(backend)
        if fuse is _KEEP:
            fuse = self.spec.fuse
        new = replace(
            self.spec, backend=backend, batch_hint=batch_hint, fuse=fuse
        )
        validate_spec(new)
        if fuse != self.spec.fuse:
            with self._build_lock:
                self._engines.pop("compiled", None)
        self.spec = new
        if self._request is not None:
            self._request.spec = new

    @property
    def fused_activation(self) -> str | None:
        """Activation folded into the engine's epilogue, if any.

        Non-None only when the layer is pinned on an engine that
        actually fuses (the engine, not the backend name, is asked):
        model forward passes skip their own activation step for such
        layers.
        """
        if self.spec.fuse is None:
            return None
        engine = self.engine_for(self.spec.batch_hint or 1)
        return getattr(engine, "activation", None)

    @property
    def compiled_backends(self) -> tuple[str, ...]:
        """Backends compiled (and cached) by this layer so far."""
        return tuple(sorted(self._engines))

    def engine_for(self, batch: int = 1) -> MatmulEngine:
        """The compiled engine serving *batch* columns (built on demand).

        Thread-safe: concurrent callers racing on a cold backend build
        it exactly once (double-checked under the layer's build lock),
        so serving workers can share a layer without duplicating the
        compile or tearing the engine dict.
        """
        name = self.planned_backend(batch)
        engine = self._engines.get(name)
        if engine is None:
            with self._build_lock:
                engine = self._engines.get(name)
                if engine is None:
                    if self._request is None:
                        raise ValueError(
                            f"layer restored from a compiled artifact "
                            f"serves only {self.compiled_backends}; "
                            f"cannot build {name!r}"
                        )
                    engine = build_engine(name, self._request)
                    self._engines[name] = engine
        return engine

    @property
    def weight_nbytes(self) -> int:
        """Deployed weight bytes for the backend serving the batch hint."""
        return int(self.engine_for(self.spec.batch_hint or 1).weight_nbytes)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply to ``(..., n)`` activations; returns ``(..., m)``."""
        arr = np.asarray(x)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        lead = arr.shape[:-1]
        n = self._shape[1]
        if arr.ndim == 0 or arr.shape[-1] != n:
            raise ValueError(
                f"input features {arr.shape[-1] if arr.ndim else 0} != "
                f"layer width {n}"
            )
        m = self._shape[0]
        cols = arr.reshape(-1, n).T  # engines use (n, tokens)
        tokens = cols.shape[1]
        if not tokens:
            # Zero tokens: nothing to plan or multiply.
            out = np.zeros((m, 0), dtype=arr.dtype).T.reshape(lead + (m,))
            return _add_bias(out, self.bias)
        # Batch-invariant mode plans at batch 1 regardless of the
        # observed batch: an auto spec replanned at the prefill batch
        # could pick a *different* engine than the lone decode-step
        # GEMV (engine_for(1)), and two engines' columns differ by more
        # than summation order -- so every call, batched or not, runs
        # on the engine a single column would use.
        engine = self.engine_for(1 if self._batch_invariant else tokens)
        if _obs.ACTIVE:
            # Observability on: wrap the product in a span and/or a
            # drift measurement.  Off (the default), this is one
            # module-attribute read and the call goes straight through.
            return self._apply_observed(engine, cols, lead, m, tokens)
        return self._apply(engine, cols, lead, m, tokens)

    def _apply(
        self,
        engine: MatmulEngine,
        cols: np.ndarray,
        lead: tuple,
        m: int,
        tokens: int,
        profiler=None,
    ) -> np.ndarray:
        """Run the engine over prepared ``(n, tokens)`` columns.

        *profiler* (a :class:`~repro.core.profiling.PhaseProfiler`) is
        forwarded to engines that take one; callers pass it only for
        engines with ``accepts_profiler`` set.
        """
        kwargs = {} if profiler is None else {"profiler": profiler}
        if (
            tokens > 1
            and self._batch_invariant
            and not getattr(engine, "batch_invariant", False)
        ):
            # Batch-invariant mode on an engine that is not invariant
            # by construction: compute one column at a time through the
            # engine's native single-column path, so every column's
            # bits match what a lone decode-step GEMV would produce.
            first = engine.matmul(cols[:, :1], **kwargs)
            out_cols = np.empty((m, tokens), dtype=first.dtype)
            out_cols[:, :1] = first
            for j in range(1, tokens):
                out_cols[:, j : j + 1] = engine.matmul(
                    cols[:, j : j + 1], **kwargs
                )
            out = out_cols.T.reshape(lead + (m,))
            if getattr(engine, "fused_epilogue", False):
                return out
            return _add_bias(out, self.bias)
        if getattr(engine, "fused_epilogue", False):
            # Bias and activation already ran inside the engine's
            # epilogue; folding them again here would double-apply.
            return engine.matmul(cols, **kwargs).T.reshape(lead + (m,))
        out_cols = engine.matmul(cols, **kwargs)
        out = out_cols.T.reshape(lead + (m,))
        return _add_bias(out, self.bias)

    def _apply_observed(
        self,
        engine: MatmulEngine,
        cols: np.ndarray,
        lead: tuple,
        m: int,
        tokens: int,
    ) -> np.ndarray:
        """The observability-enabled spelling of :meth:`_apply`.

        Opens an ``engine.matmul`` span (tracing), routes the shared
        kernel profiler into engines that accept one so the span tree
        bottoms out in ``kernel.build/query/replace`` phases, records
        measured wall time against the planner's predicted cost (drift
        telemetry), and feeds the per-layer latency series in the
        metrics registry -- with the span's trace id as the bucket
        exemplar, so a slow bucket on /metrics links to a trace.  Kept
        out of :meth:`__call__` so the disabled path never sees any of
        it.
        """
        from repro.obs import trace as _trace

        backend = self.planned_backend(1 if self._batch_invariant else tokens)
        n = self._shape[1]
        profiler = None
        if _obs.TRACING and getattr(engine, "accepts_profiler", False):
            profiler = _trace.kernel_profiler()
        start = time.perf_counter()
        with _trace.span(
            "engine.matmul", backend=backend, m=m, n=n, batch=tokens
        ) as matmul_span:
            result = self._apply(
                engine, cols, lead, m, tokens, profiler=profiler
            )
        elapsed = time.perf_counter() - start
        ctx = (
            getattr(matmul_span, "context", None) if _obs.TRACING else None
        )
        self._matmul_series(backend, m, n).record(
            elapsed, trace_id=ctx.trace_id if ctx is not None else None
        )
        if _obs.DRIFT:
            from repro.obs.drift import record_measurement

            seconds, rec_tokens = elapsed, tokens
            if self._batch_invariant and tokens > 1:
                # A decode tick coalesces N sequences into one call,
                # but the planner priced -- and compile() recorded a
                # prediction for -- the per-sequence batch-1 GEMV.
                # Record the per-column cost on the batch-1 bucket so
                # decode-path shapes pair with their predictions in the
                # planner-regret report instead of landing on bucket
                # keys that have no prediction at all.
                seconds, rec_tokens = elapsed / tokens, 1
            record_measurement(
                backend,
                m,
                n,
                self.spec.bits,
                rec_tokens,
                seconds,
                mu=self.spec.mu,
                machine=self.spec.machine
                if isinstance(self.spec.machine, str)
                else getattr(self.spec.machine, "name", "pc"),
            )
        return result

    def _matmul_series(self, backend: str, m: int, n: int):
        """This layer's exemplar-enabled latency histogram for
        *backend* in the unified registry (cached: one registry lookup
        per (layer, backend), not per call)."""
        cache = getattr(self, "_obs_series", None)
        if cache is None:
            cache = self._obs_series = {}
        hist = cache.get(backend)
        if hist is None:
            from repro.obs.metrics import (
                DEFAULT_LATENCY_BOUNDS,
                get_registry,
            )

            hist = cache[backend] = get_registry().histogram(
                "repro_engine_matmul_seconds",
                "per-layer engine matmul wall time",
                exemplar_bounds=DEFAULT_LATENCY_BOUNDS,
                backend=backend,
                m=m,
                n=n,
            )
        return hist


def make_linear(
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    *,
    spec: QuantSpec | None = None,
):
    """Factory: dense :class:`Linear` when *spec* is None, else
    :class:`QuantLinear`.

    Model builders take this as their injection point so a whole network
    can be flipped between float execution, a pinned engine, or
    cost-model auto-dispatch with one argument.  *spec* also accepts a
    :class:`~repro.api.QuantConfig`.
    """
    if spec is None:
        return Linear(weight, bias)
    return QuantLinear(weight, bias, spec=spec)
