"""Model-level quantize -> compile -> serve.

The paper's deployment story is whole-network: quantize every weight
GEMM of a Transformer or LSTM offline, compile the engines, ship the
compiled state, serve.  This module provides that pipeline over any
model built from the :mod:`repro.nn` layers (and plain layer lists, and
the numpy :class:`~repro.train.mlp.MLPClassifier`):

:func:`quantize`
    Walk the model, replace every float :class:`~repro.nn.linear.Linear`
    with a :class:`~repro.nn.linear.QuantLinear` under the per-layer
    spec a :class:`~repro.api.QuantConfig` resolves for its dotted path
    -- mixed bit-widths are one glob override away.
:class:`QuantModel`
    The quantized-but-unplanned model: named layers, shapes, callable.
:meth:`QuantModel.compile`
    One planning pass over all layers through
    :func:`repro.api.planner.plan_layers` (shared plan cache), pinning
    each layer to its planned backend.
:class:`CompiledModel`
    The servable result: callable inference, ``warmup()``,
    ``cost_report()``, ``save()`` to the v3 whole-model artifact.

Layer naming: paths are dotted attribute chains with the repo's
conventional segments -- encoder stacks enumerate as ``L0``, ``L1``,
..., attention projections as ``attn.q/k/v/o``, feed-forward blocks as
``ffn.ff1`` / ``ffn.ff2`` -- matching
:func:`repro.nn.model_zoo.model_gemm_shapes`, so one override glob
speaks to both the planner sweeps and real models.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro._util import check_positive_int
from repro.api.config import QuantConfig
from repro.api.planner import (
    LayerPlan,
    ModelCostReport,
    cost_report,
    layer_cost,
    plan_layers,
)
from repro.core.workspace import Workspace
from repro.engine import QuantSpec, batch_bucket, batch_buckets
from repro.obs import runtime as _obs
from repro.nn.attention import MultiHeadAttention
from repro.nn.conv import QuantConv2d
from repro.nn.functional import relu
from repro.nn.linear import Linear, QuantLinear
from repro.nn.seq2seq import Seq2SeqTransformer
from repro.nn.transformer import (
    TransformerDecoderLayer,
    TransformerEncoder,
    TransformerEncoderLayer,
)

__all__ = [
    "CompiledModel",
    "QuantMLP",
    "QuantModel",
    "apply_config",
    "named_quant_layers",
    "quantize",
]


# ----------------------------------------------------------------------
# traversal
# ----------------------------------------------------------------------
# Friendly path segments so glob overrides read like the paper's layer
# names instead of python attribute spellings.
_ATTR_ALIASES: dict[type, dict[str, str]] = {
    MultiHeadAttention: {
        "q_proj": "q",
        "k_proj": "k",
        "v_proj": "v",
        "o_proj": "o",
    },
    TransformerEncoderLayer: {"ff1": "ffn.ff1", "ff2": "ffn.ff2"},
    TransformerDecoderLayer: {"ff1": "ffn.ff1", "ff2": "ffn.ff2"},
}

# List attributes whose items enumerate as ``<prefix><i>`` (``L0``)
# rather than ``<attr>.<i>`` (``layers.0``).
_LIST_PREFIX_ALIASES: dict[type, dict[str, str]] = {
    TransformerEncoder: {"layers": "L"},
    Seq2SeqTransformer: {"encoder_layers": "enc", "decoder_layers": "dec"},
}

# Attributes walked despite a leading underscore, renamed (an empty
# string collapses the segment: QuantConv2d's inner linear *is* the
# conv layer as far as naming goes).
_PRIVATE_WALKED: dict[type, dict[str, str]] = {
    QuantConv2d: {"_linear": ""},
}

_LEAF_TYPES = (Linear, QuantLinear)

Visit = Callable[[str, Any], Any]


def _join(prefix: str, segment: str) -> str:
    if not segment:
        return prefix
    return f"{prefix}.{segment}" if prefix else segment


def _walkable(value: Any) -> bool:
    if isinstance(value, (list, tuple, dict)):
        return True
    if isinstance(value, (str, bytes, np.ndarray, np.generic, type)):
        return False
    return hasattr(value, "__dict__")


def _alias_for(cls: type, table: dict[type, dict[str, str]], attr: str):
    for klass in cls.__mro__:
        entry = table.get(klass)
        if entry and attr in entry:
            return entry[attr]
    return None


def _visit_item(item: Any, path: str, visit: Visit, seen: set[int]):
    """Visit one child: returns a replacement for leaves, else None."""
    if isinstance(item, _LEAF_TYPES):
        return visit(path, item)
    if _walkable(item):
        _walk(item, path, visit, seen)
    return None


def _walk(node: Any, prefix: str, visit: Visit, seen: set[int]) -> None:
    if id(node) in seen:
        return
    seen.add(id(node))
    if isinstance(node, (list, tuple)):
        for i, item in enumerate(node):
            new = _visit_item(item, _join(prefix, str(i)), visit, seen)
            if new is not None:
                if not isinstance(node, list):
                    raise TypeError(
                        f"cannot replace layer {prefix}.{i} inside a tuple; "
                        "use a list"
                    )
                node[i] = new
        return
    if isinstance(node, dict):
        for key, item in list(node.items()):
            new = _visit_item(item, _join(prefix, str(key)), visit, seen)
            if new is not None:
                node[key] = new
        return
    if not hasattr(node, "__dict__"):
        return
    cls = type(node)
    for attr, value in list(vars(node).items()):
        if attr.startswith("_"):
            renamed = _alias_for(cls, _PRIVATE_WALKED, attr)
            if renamed is None:
                continue
            segment = renamed
        else:
            segment = _alias_for(cls, _ATTR_ALIASES, attr)
            if segment is None:
                segment = attr
        list_prefix = _alias_for(cls, _LIST_PREFIX_ALIASES, attr)
        if list_prefix is not None and isinstance(value, list):
            for i, item in enumerate(value):
                new = _visit_item(
                    item, _join(prefix, f"{list_prefix}{i}"), visit, seen
                )
                if new is not None:
                    value[i] = new
            continue
        path = _join(prefix, segment)
        new = _visit_item(value, path, visit, seen)
        if new is not None:
            setattr(node, attr, new)


def named_quant_layers(model: Any) -> list[tuple[str, Any]]:
    """All ``(dotted_path, layer)`` linear leaves of *model*, in walk
    order.  Leaves are :class:`Linear` and :class:`QuantLinear`
    instances; :class:`QuantConv2d` contributes its inner linear under
    the conv's own path."""
    found: list[tuple[str, Any]] = []

    def visit(path: str, layer: Any):
        found.append((path, layer))
        return None

    _walk(model, "", visit, set())
    return found


# ----------------------------------------------------------------------
# the MLP adapter
# ----------------------------------------------------------------------
class QuantMLP:
    """:mod:`repro.api` view of a trained numpy MLP classifier.

    :class:`~repro.train.mlp.MLPClassifier` stores raw weight arrays;
    this adapter lifts them into layer objects (``fc.0`` ... ``fc.N``)
    so the quantize -> compile -> serve pipeline (and the v3 artifact)
    applies to the Table I training substrate unchanged.  The forward
    pass mirrors ``MLPClassifier.forward``: ReLU between layers, raw
    logits out.
    """

    def __init__(self, layers: list):
        if not layers:
            raise ValueError("QuantMLP needs at least one layer")
        self.fc = list(layers)

    @classmethod
    def from_classifier(cls, clf) -> "QuantMLP":
        """Wrap an :class:`~repro.train.mlp.MLPClassifier`'s weights."""
        return cls(
            [Linear(w, b) for w, b in zip(clf.weights, clf.biases)]
        )

    @property
    def dims(self) -> tuple[int, ...]:
        """Layer widths ``(input, hidden..., classes)``."""
        first = self.fc[0].shape
        return (first[1],) + tuple(layer.shape[0] for layer in self.fc)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Logits for inputs ``(batch, input_dim)``.

        Hidden activations run in place on the layer's output buffer,
        and a layer whose engine already fused the ReLU into its
        epilogue (:attr:`QuantLinear.fused_activation`) skips the step
        entirely -- same bits either way.
        """
        h = np.asarray(x)
        last = len(self.fc) - 1
        for i, layer in enumerate(self.fc):
            h = layer(h)
            if i < last and getattr(layer, "fused_activation", None) is None:
                h = relu(h, out=h)
        return h

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class indices for inputs ``(batch, input_dim)``."""
        return self(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Fraction of correct predictions."""
        return float((self.predict(x) == np.asarray(y)).mean())


def _adapt(model: Any) -> Any:
    """Known non-layer models -> walkable adapters."""
    from repro.train.mlp import MLPClassifier

    if isinstance(model, MLPClassifier):
        return QuantMLP.from_classifier(model)
    if isinstance(model, tuple):
        return list(model)
    return model


# ----------------------------------------------------------------------
# quantize
# ----------------------------------------------------------------------
def _coerce_config(config, kwargs: Mapping[str, Any]) -> QuantConfig:
    if kwargs:
        if config is not None:
            raise TypeError("pass either a config or bare kwargs, not both")
        return QuantConfig(**kwargs)
    if config is None:
        return QuantConfig()
    if isinstance(config, QuantConfig):
        return config
    if isinstance(config, QuantSpec):
        return QuantConfig.from_spec(config)
    raise TypeError(
        f"config must be a QuantConfig or QuantSpec, got "
        f"{type(config).__name__}"
    )


def apply_config(model: Any, config: QuantConfig) -> list[tuple[str, Any]]:
    """Quantize *model* in place under *config*; returns named layers.

    Float :class:`Linear` leaves become :class:`QuantLinear` under
    ``config.spec_for(path)``; already-quantized leaves are re-specced
    through :meth:`QuantLinear.with_spec` (sharing their solved BCQ
    state).  The builders' ``spec=QuantConfig(...)`` path lands here.
    """
    named: list[tuple[str, Any]] = []

    def visit(path: str, layer: Any):
        spec = config.spec_for(path)
        if isinstance(layer, QuantLinear):
            new = layer if layer.spec == spec else layer.with_spec(spec)
        else:
            new = QuantLinear(layer.weight, layer.bias, spec=spec)
        named.append((path, new))
        return new if new is not layer else None

    _walk(model, "", visit, set())
    if not named:
        raise ValueError(
            f"no quantizable linear layers found in "
            f"{type(model).__name__}"
        )
    return named


def quantize(model: Any, config=None, **kwargs) -> "QuantModel":
    """Quantize a whole model under one declarative config.

    *model* may be any object built from :mod:`repro.nn` layers (an
    encoder from :func:`~repro.nn.model_zoo.build_encoder`, an LSTM
    cell, a seq2seq transformer), a plain list of layers, or a trained
    :class:`~repro.train.mlp.MLPClassifier` (adapted via
    :class:`QuantMLP`).  *config* is a :class:`QuantConfig` (or a
    :class:`QuantSpec`, lifted); bare kwargs build one::

        qm = quantize(build_encoder("transformer-base", scale=16),
                      QuantConfig(bits=3, overrides={"ffn.*": {"bits": 4}}))

    Quantization happens in place on the (possibly adapted) model; the
    returned :class:`QuantModel` is the handle for compilation.
    """
    config = _coerce_config(config, kwargs)
    model = _adapt(model)
    named = apply_config(model, config)
    return QuantModel(model, config, named)


# ----------------------------------------------------------------------
# QuantModel / CompiledModel
# ----------------------------------------------------------------------
def _fusion_sites(model: Any, named: Iterable[tuple[str, Any]]) -> dict[str, str]:
    """``{layer_path: activation}`` for layers the model graph follows
    with a fusible activation.

    The fusion planning pass of :meth:`QuantModel.compile`: these are
    the sites where pinning the ``"compiled"`` engine folds the next
    activation into the GEMM epilogue (and the forward pass then skips
    its own activation step).  Recognised today: transformer
    feed-forward first projections (``...ffn.ff1`` -> ReLU) and
    :class:`QuantMLP` hidden layers (``fc.<i>`` -> ReLU, all but the
    last).
    """
    sites: dict[str, str] = {}
    for name, _ in named:
        if name.endswith("ffn.ff1"):
            sites[name] = "relu"
    if isinstance(model, QuantMLP):
        last = len(model.fc) - 1
        for name, _ in named:
            head, _, idx = name.rpartition(".")
            if head == "fc" and idx.isdigit() and int(idx) < last:
                sites[name] = "relu"
    return sites


class QuantModel:
    """A quantized model plus its config: the pre-planning handle."""

    def __init__(
        self,
        model: Any,
        config: QuantConfig,
        layers: Iterable[tuple[str, Any]] | None = None,
    ):
        self.model = model
        self.config = config
        self._layers = tuple(
            layers if layers is not None else named_quant_layers(model)
        )
        if not self._layers:
            raise ValueError("QuantModel holds no quantized layers")
        # Bumped on every compile(); CompiledModels carry the value they
        # were built at, so a superseded handle fails loudly instead of
        # silently serving the newer compilation's pinned engines.
        self._compile_generation = 0

    def named_layers(self) -> tuple[tuple[str, Any], ...]:
        """``(dotted_path, QuantLinear)`` per weight GEMM, walk order."""
        return self._layers

    def layer(self, path: str):
        """Look up one layer by dotted path."""
        for name, layer in self._layers:
            if name == path:
                return layer
        raise KeyError(
            f"no layer {path!r}; known paths: "
            f"{[name for name, _ in self._layers]}"
        )

    def gemm_shapes(self) -> list[tuple[str, int, int]]:
        """``(path, m, n)`` per layer -- the planner's input."""
        return [
            (name, layer.shape[0], layer.shape[1])
            for name, layer in self._layers
        ]

    @property
    def weight_nbytes(self) -> int:
        """Total deployed weight bytes across layers (compiles engines)."""
        return sum(layer.weight_nbytes for _, layer in self._layers)

    def __call__(self, *args, **kwargs):
        """Run the underlying model (per-call auto-dispatch until
        compiled)."""
        return self.model(*args, **kwargs)

    def compile(
        self,
        *,
        batch_hint: int | None = None,
        planner: str | None = None,
        machine: str | None = None,
    ) -> "CompiledModel":
        """Plan every layer in one pass and pin the choices.

        ``batch_hint`` is the expected serving batch (defaults to the
        config's hint, else 1); ``planner="autotune"`` ranks candidates
        by host micro-benchmark instead of the cost model; *machine*
        re-prices on another Table III config.  All plans go through the
        shared plan cache -- a deep stack prices each distinct shape
        once -- and each layer is pinned to its planned backend, so the
        compiled model keeps serving it even if the plan cache is
        cleared afterwards.

        Compiling again re-pins the shared layers; any previously
        returned :class:`CompiledModel` is superseded and refuses to
        serve (quantize a fresh model to hold two compilations live).

        **Native kernel.**  ``"auto"`` layers are planned with the
        ``"compiled"`` engine among the candidates, so every layer the
        planner puts on the LUT runs the native kernel (or, on a host
        without a C compiler, its bit-identical numpy fallback); layers
        where ``"dense"`` is cheaper stay dense.

        **Fusion planning.**  A layer planned onto ``"compiled"`` that
        the model graph follows with a fusible activation
        (:func:`_fusion_sites`) is pinned with ``spec.fuse`` set, and
        the forward pass skips its separate activation step.  Fused and
        unfused execution are bit-identical -- but the activation now
        runs *inside* the layer call, so step-by-step hooks observing
        intermediate tensors may see the reordering.
        """
        hint = (
            batch_hint
            if batch_hint is not None
            else (self.config.batch_hint or 1)
        )
        check_positive_int(hint, "batch_hint")
        plans = plan_layers(
            self.gemm_shapes(),
            self.config,
            batch_hint=hint,
            planner=planner,
            machine=machine,
            fusions=_fusion_sites(self.model, self._layers),
        )
        for plan, (_, layer) in zip(plans, self._layers):
            layer.pin_backend(
                plan.backend, batch_hint=hint, fuse=plan.spec.fuse
            )
        if _obs.DRIFT:
            # Drift telemetry: park each pinned plan's predicted cost on
            # the key serving measurements will land on.  plan_backend
            # already records all candidates on plan-cache misses; this
            # covers plans resolved from warm cache lines.
            from repro.obs.drift import record_prediction

            bucket = batch_bucket(hint)
            for plan in plans:
                estimate = layer_cost(plan, batch_hint=hint)
                if estimate is None:
                    continue
                record_prediction(
                    plan.backend,
                    plan.m,
                    plan.n,
                    plan.spec.bits,
                    bucket,
                    estimate.seconds,
                    mu=plan.spec.mu,
                    machine=plan.spec.machine
                    if isinstance(plan.spec.machine, str)
                    else getattr(plan.spec.machine, "name", "pc"),
                )
        self._compile_generation += 1
        return CompiledModel(self, plans, hint)


def _share_arrays(node: Any, memo: dict, seen: set[int]) -> None:
    """Seed a deepcopy *memo* so every ndarray under *node* is shared.

    Used by :meth:`CompiledModel.clone`: replicas need independent
    mutable bookkeeping (dicts, locks, layer objects) but the read-only
    float parameters -- a vocab-sized embedding table, say -- must not
    be duplicated per worker.
    """
    if id(node) in seen:
        return
    seen.add(id(node))
    if isinstance(node, np.ndarray):
        memo[id(node)] = node
        return
    if isinstance(node, (list, tuple)):
        for item in node:
            _share_arrays(item, memo, seen)
        return
    if isinstance(node, dict):
        for value in node.values():
            _share_arrays(value, memo, seen)
        return
    if _walkable(node):
        for value in vars(node).values():
            _share_arrays(value, memo, seen)


class CompiledModel:
    """A planned, pinned, servable model.

    Produced by :meth:`QuantModel.compile`; every layer is frozen onto
    the backend the one-pass planner chose, so inference never
    re-plans.  ``warmup()`` builds all engines ahead of the first
    request; ``cost_report()`` shows the planner's evidence;
    ``save(path)`` writes the v3 whole-model artifact.

    Every forward allocates its activations afresh, so a returned array
    is the caller's to keep and concurrent calls on one handle are
    safe; :meth:`clone` gives each serving worker its own layer
    bookkeeping.  Only the KV caches :meth:`generate` opens live on a
    long-lived arena (:meth:`_kv_workspace`).
    """

    def __init__(
        self, quant_model: QuantModel, plans: list[LayerPlan], batch_hint: int
    ):
        self._qm = quant_model
        self._plans = tuple(plans)
        self.batch_hint = int(batch_hint)
        self._generation = quant_model._compile_generation
        # Long-lived arena backing KV caches (created on first
        # generate(); never reset -- caches release blocks on close).
        self._kv_guard = threading.Lock()
        self._kv: Workspace | None = None

    def _check_active(self) -> None:
        if self._generation != self._qm._compile_generation:
            raise ValueError(
                "this CompiledModel was superseded by a later compile() of "
                "the same QuantModel (its layers were re-pinned); use the "
                "newest handle, or quantize a fresh model per compilation"
            )

    @property
    def model(self) -> Any:
        """The underlying (quantized, pinned) model object."""
        return self._qm.model

    @property
    def config(self) -> QuantConfig:
        """The config the model was quantized under."""
        return self._qm.config

    @property
    def layer_plans(self) -> tuple[LayerPlan, ...]:
        """The full per-layer planning record."""
        return self._plans

    @property
    def plans(self) -> dict[str, str]:
        """``{dotted_path: backend}`` -- the compiled decision table."""
        return {plan.name: plan.backend for plan in self._plans}

    def named_layers(self) -> tuple[tuple[str, Any], ...]:
        """``(dotted_path, QuantLinear)`` pairs, walk order."""
        return self._qm.named_layers()

    def warmup(self, sample: np.ndarray | None = None) -> "CompiledModel":
        """Build every pinned engine now (first-request latency to
        zero).  Returns self for chaining.

        With *sample* -- one request without its batch axis, exactly
        what :meth:`repro.serve.Server.predict` receives -- the model
        additionally runs one forward pass per planned batch bucket up
        to the compile hint (the sample tiled to the bucket's batch),
        so lazily built state -- the native kernel library, each
        ``compiled`` engine's per-dtype plan, the shared table scratch
        -- exists before the first real request.
        """
        self._check_active()
        for _, layer in self._qm.named_layers():
            layer.engine_for(self.batch_hint)
        if sample is not None:
            arr = np.asarray(sample)
            for bucket in batch_buckets(self.batch_hint):
                batched = np.broadcast_to(
                    arr[None, ...], (bucket,) + arr.shape
                )
                self(np.ascontiguousarray(batched))
        return self

    def cost_report(self) -> ModelCostReport:
        """Roofline price of each layer's pinned backend at the compile
        batch."""
        return cost_report(self._plans, batch_hint=self.batch_hint)

    @property
    def weight_nbytes(self) -> int:
        """Total deployed weight bytes (builds engines on first use)."""
        return self._qm.weight_nbytes

    def __call__(self, x, *args, **kwargs):
        """Serve: run the underlying model on the pinned engines.

        1-D inputs are auto-promoted to a single-row batch ``(1, k)``
        and the output's unit batch axis is squeezed away, so a
        per-request serving path can hand vectors straight through
        without caller-side reshapes.
        """
        self._check_active()
        arr = np.asarray(x)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        if _obs.TRACING:
            from repro.obs.trace import span

            with span(
                "model.forward",
                batch=int(arr.shape[0]) if arr.ndim else 1,
            ):
                out = self.model(arr, *args, **kwargs)
        else:
            out = self.model(arr, *args, **kwargs)
        if squeeze:
            out = np.asarray(out)
            return out[0] if out.ndim and out.shape[0] == 1 else out
        return out

    def _kv_workspace(self) -> Workspace:
        """The long-lived arena the KV caches of :meth:`generate` grow
        on (never reset -- caches release their blocks on close)."""
        with self._kv_guard:
            if self._kv is None:
                self._kv = Workspace(name="kv")
            return self._kv

    def generate(
        self,
        prompt,
        max_new_tokens: int,
        *,
        temperature: float = 0.0,
        top_k: int | None = None,
        seed: int = 0,
        eos_id: int | None = None,
    ) -> list[int]:
        """Autoregressively decode *max_new_tokens* tokens after *prompt*.

        The paper's headline workload (Fig. 10): one batched **prefill**
        over the prompt populates per-layer KV caches, then each new
        token is a single ``(n, 1)`` GEMV sweep through the pinned
        engines -- the batch-1 regime BiQGEMM's lookup tables win.
        Every quantized layer is (re-)marked batch-invariant first, so
        the cached decode is bit-identical to running the full causal
        recompute at each length, on every registered engine.

        Parameters
        ----------
        prompt:
            Token ids, ``(prompt_len,)`` or ``(1, prompt_len)``.
        max_new_tokens:
            Decode budget.
        temperature / top_k / seed:
            Sampling controls (see :class:`repro.gen.Sampler`).  The
            default ``temperature=0.0`` is greedy argmax; any positive
            temperature samples from a private RNG stream seeded by
            *seed*, so the same call replays the same tokens.
        eos_id:
            Optional stop token: decoding ends once it is emitted (the
            stop token is included in the returned list).

        Returns the newly generated token ids (prompt not included).
        """
        self._check_active()
        check_positive_int(max_new_tokens, "max_new_tokens")
        model = self.model
        # The encoder stack also exposes init_cache/prefill/step, but at
        # the hidden-state level -- token decode additionally needs the
        # embedding table that maps ids into the stack.
        for attr in ("init_cache", "prefill", "step", "embedding"):
            if getattr(model, attr, None) is None:
                raise TypeError(
                    f"model {type(model).__name__!r} has no incremental "
                    f"decode API (missing {attr}); generate() needs a "
                    "DecoderLM-style model"
                )
        from repro.gen.model import mark_batch_invariant
        from repro.gen.sampler import Sampler

        # quantize()/apply_config() may have swapped layers in since
        # construction; re-marking is idempotent and cheap.
        mark_batch_invariant(model)
        ids = np.asarray(prompt, dtype=np.int64)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2 or ids.shape[0] != 1 or not ids.shape[1]:
            raise ValueError(
                f"prompt must be (prompt_len,) or (1, prompt_len) token "
                f"ids, got shape {np.asarray(prompt).shape}"
            )
        sampler = Sampler(temperature=temperature, top_k=top_k, seed=seed)
        caches = model.init_cache(
            workspace=self._kv_workspace(),
            reserve=ids.shape[1] + max_new_tokens,
        )

        def run(label, fn, *args, **meta):
            if _obs.TRACING:
                from repro.obs.trace import span

                with span(label, **meta):
                    return fn(*args)
            return fn(*args)

        out: list[int] = []
        try:
            logits = run("gen.prefill", model.prefill, ids, caches,
                         tokens=int(ids.shape[1]))
            token = sampler.sample(logits)
            out.append(token)
            while len(out) < max_new_tokens and token != eos_id:
                logits = run("gen.step", model.step, token, caches,
                             position=int(caches[0].length))
                token = sampler.sample(logits)
                out.append(token)
        finally:
            for cache in caches:
                cache.close()
        return out

    def decode_step_many(self, tokens, cache_lists) -> np.ndarray:
        """One continuous-batching decode tick: one new token per
        sequence, coalesced through the pinned engines.

        Returns ``(n, vocab)`` logits; each row is bit-identical to
        stepping that sequence alone (the batch-invariant contract --
        see :meth:`generate`).
        """
        self._check_active()
        model = self.model
        if not callable(getattr(model, "step_many", None)):
            raise TypeError(
                f"model {type(model).__name__!r} has no step_many(); "
                "continuous batching needs a DecoderLM-style model"
            )
        return model.step_many(tokens, cache_lists)

    def clone(self) -> "CompiledModel":
        """An independent serving replica sharing the compiled engines.

        The heavy immutable state -- compiled engines, BCQ solutions,
        biases -- is shared; the model structure and every layer's
        mutable bookkeeping (engine dict, build lock) are copied, so one
        replica per worker thread serves without contending on the
        others.  The replica is its own :class:`QuantModel` /
        :class:`CompiledModel` pair: re-compiling the original never
        supersedes it.
        """
        self._check_active()
        memo: dict[int, Any] = {}
        named_src = self._qm.named_layers()
        for _, layer in named_src:
            memo[id(layer)] = layer.clone_shared()
        # Inference never mutates parameters, so every float array
        # outside the quantized layers (embeddings, norms, biases) is
        # shared too -- replicas copy structure, not memory.
        _share_arrays(self._qm.model, memo, set())
        model = copy.deepcopy(self._qm.model, memo)
        named = [(name, memo[id(layer)]) for name, layer in named_src]
        qm = QuantModel(model, self._qm.config, named)
        return CompiledModel(qm, list(self._plans), self.batch_hint)

    def replicate(self, n: int) -> list["CompiledModel"]:
        """*n* warmed serving replicas (see :meth:`clone`).

        Engines are compiled once (``warmup()``) before cloning so every
        replica shares the same built engines rather than racing to
        build its own.
        """
        check_positive_int(n, "n")
        self.warmup()
        return [self.clone() for _ in range(n)]

    def serve(self, name: str = "default", **kwargs) -> Any:
        """Start an in-process :class:`repro.serve.Server` on this model.

        Keyword arguments are :class:`repro.serve.ServeConfig` fields
        (``workers``, ``max_batch``, ``max_latency_ms``, ``max_queue``,
        ...).  The returned server is already started; call
        ``predict(name, x)`` on it, expose it over HTTP with
        ``serve_http()``, and ``stop()`` (or use it as a context
        manager) when done.
        """
        from repro.serve import ServeConfig, Server

        server = Server(config=ServeConfig(**kwargs))
        server.add_model(name, self)
        server.start()
        return server

    def save(self, path) -> None:
        """Write the v3 whole-model artifact (see
        :mod:`repro.api.artifact`)."""
        from repro.api.artifact import save

        save(self, path)
