"""Linear layers with registry-dispatched matmul backends.

:class:`Linear` is the dense float reference.  :class:`QuantLinear`
quantizes its weight with BCQ at construction and forwards its product
to whatever engine the :mod:`repro.engine` registry resolves for its
:class:`~repro.engine.base.QuantSpec` -- by name (``"biqgemm"``, the
paper's LUT kernel on the native code path, ``"dense"``, ``"int8"``,
or anything registered later), or via the cost-model planner with
``backend="auto"``.  ``auto`` resolves once, at construction, at the
spec's ``batch_hint`` (1 when unset), the rule
:meth:`repro.api.QuantModel.compile` applies too.  The layer then
holds that one engine for every batch, so each row of a batch is
computed exactly as it would be alone.  The paper's Section V
situational winner is chosen per layer by the batch it is planned for,
not per call.  The paper's sGEMM, unpack-then-GEMM and XNOR kernels
are paper-bench baselines in :mod:`repro.gemm`, not serving engines,
so no layer runs them.

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
    state ships).  The layer runs one backend (``"auto"`` is resolved
    at construction) on one engine, compiled lazily on first use and
    rebuilt only when :meth:`pin_backend` changes the backend or the
    fused activation.  ``dequantized`` reconstructs the effective
    weight for analysis.

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
        self._shape = (int(w.shape[0]), int(w.shape[1]))
        self._backend = resolve_backend(spec, *self._shape)
        self._request = EngineBuildRequest(spec=spec, weight=w, bias=self.bias)
        if not engine_entry(self._backend).needs_weight:
            # Solves BCQ (the state the backend builds from) and drops
            # the float weight.  Backends that fit their own grid to
            # the float weight (int8) skip the BCQ solve entirely
            # unless it is asked for.
            self._request.release_weight()
        self._engine: MatmulEngine | None = None
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
        engine exposes its BCQ state the layer can still be re-pinned
        onto other BCQ-derived backends; otherwise it serves exactly
        this one.
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
        obj._backend = spec.backend
        obj._engine = engine
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
        obj._backend = resolve_backend(spec, *self._shape)
        obj._engine = None
        obj._build_lock = threading.Lock()
        return obj

    def clone_shared(self) -> "QuantLinear":
        """A layer sharing this one's compiled engine and quantized
        state, with independent mutable bookkeeping.

        The serving replica path (:meth:`repro.api.CompiledModel.clone`):
        compiled engines are immutable after build and their ``matmul``
        holds no per-call state, so replicas can share them -- but each
        replica gets its own engine slot and build lock, so re-pinning
        or lazily building one replica never touches another.
        """
        obj = QuantLinear.__new__(QuantLinear)
        obj.bias = self.bias
        obj.spec = self.spec
        obj._request = self._request
        obj._shape = self._shape
        obj._backend = self._backend
        obj._engine = self._engine
        obj._build_lock = threading.Lock()
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
        if (
            self._request is not None
            and not engine_entry(self._backend).needs_weight
        ):
            return self.bcq.dequantize()
        engine = self.engine_for()
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

    def planned_backend(self) -> str:
        """The concrete backend this layer runs, at every batch."""
        return self._backend

    def pin_backend(
        self,
        backend: str,
        *,
        batch_hint: int | None = None,
        fuse: str | None = _KEEP,
    ) -> None:
        """Freeze this layer onto *backend* (the compile step's pin).

        Replaces the spec's backend (and ``batch_hint``).  The compiled
        engine is kept when the backend and the fused activation stay
        the same, and rebuilt on next use otherwise.

        *fuse* sets the epilogue activation fused into a ``"biqgemm"``
        engine (the fusion planning pass of
        :meth:`repro.api.QuantModel.compile`).  Omitting it keeps the
        spec's current value; an engine built with the old epilogue
        baked in is dropped.
        """
        engine_entry(backend)
        if fuse is _KEEP:
            fuse = self.spec.fuse
        new = replace(
            self.spec, backend=backend, batch_hint=batch_hint, fuse=fuse
        )
        validate_spec(new)
        with self._build_lock:
            if (backend, fuse) != (self._backend, self.spec.fuse):
                if self._request is None:
                    raise ValueError(
                        "layer restored from a compiled artifact without "
                        f"BCQ state serves only {self._backend!r} with "
                        f"fuse={self.spec.fuse!r}; cannot build "
                        f"{backend!r} with fuse={fuse!r}"
                    )
                self._engine = None
            self._backend = backend
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
        return getattr(self.engine_for(), "activation", None)

    @property
    def compiled_backends(self) -> tuple[str, ...]:
        """The backend whose engine is compiled, or ``()`` before the
        first use."""
        return () if self._engine is None else (self._backend,)

    def engine_for(self, batch: int = 1) -> MatmulEngine:
        """The compiled engine (built on demand); it serves every
        *batch*.

        Thread-safe: concurrent callers racing on a cold layer build
        its engine exactly once (double-checked under the layer's build
        lock), so serving workers can share a layer without duplicating
        the compile.
        """
        engine = self._engine
        if engine is None:
            with self._build_lock:
                engine = self._engine
                if engine is None:
                    engine = build_engine(self._backend, self._request)
                    self._engine = engine
        return engine

    @property
    def weight_nbytes(self) -> int:
        """Deployed weight bytes of the serving engine."""
        return int(self.engine_for().weight_nbytes)

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
            # Zero tokens: nothing to multiply.
            out = np.zeros((m, 0), dtype=arr.dtype).T.reshape(lead + (m,))
            return _add_bias(out, self.bias)
        engine = self.engine_for()
        if _obs.ACTIVE:
            # Observability on: wrap the product in a span and/or a
            # drift measurement.  Off (the default), this is one
            # module-attribute read and the call goes straight through.
            return self._apply_observed(engine, cols, lead, m, tokens)
        return self._apply(engine, cols, lead, m)

    def _apply(
        self,
        engine: MatmulEngine,
        cols: np.ndarray,
        lead: tuple,
        m: int,
    ) -> np.ndarray:
        """Run the engine over prepared ``(n, tokens)`` columns."""
        if getattr(engine, "fused_epilogue", False):
            # Bias and activation already ran inside the engine's
            # epilogue; folding them again here would double-apply.
            return engine.matmul(cols).T.reshape(lead + (m,))
        out_cols = engine.matmul(cols)
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

        Runs the same engine call as :meth:`_apply` inside an
        ``engine.matmul`` span (tracing), records measured wall time
        against the planner's predicted cost (drift telemetry), and
        feeds the per-layer latency series in the metrics registry --
        with the span's trace id as the bucket exemplar, so a slow
        bucket on /metrics links to a trace.  Kept out of
        :meth:`__call__` so the disabled path never sees any of it.
        """
        from repro.obs import trace as _trace

        backend = self._backend
        n = self._shape[1]
        start = time.perf_counter()
        with _trace.span(
            "engine.matmul", backend=backend, m=m, n=n, batch=tokens
        ) as matmul_span:
            result = self._apply(engine, cols, lead, m)
        elapsed = time.perf_counter() - start
        ctx = (
            getattr(matmul_span, "context", None) if _obs.TRACING else None
        )
        self._matmul_series(backend, m, n).record(
            elapsed, trace_id=ctx.trace_id if ctx is not None else None
        )
        if _obs.DRIFT:
            from repro.obs.drift import record_measurement

            record_measurement(
                backend,
                m,
                n,
                self.spec.bits,
                tokens,
                elapsed,
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
