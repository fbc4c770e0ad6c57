"""Transformer encoder/decoder layers (paper Section II-C structure).

"An encoder layer includes one attention block structured as four
``(n x n)`` weight matrices and a feed-forward block with ``(n x 4n)``
and ``(4n x n)`` matrices"; decoders add a cross-attention block.  This
module builds exactly that, post-norm as in the original Transformer,
with all projection weights flowing through the pluggable linear
factory so encoder stacks can execute on BiQGEMM end to end -- or on
cost-model auto-dispatch (``QuantSpec(backend="auto")``), where each
projection resolves its one engine at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int
from repro.nn.attention import MultiHeadAttention
from repro.nn.functional import layer_norm, relu
from repro.nn.linear import QuantSpec, make_linear, split_builder_spec


def _finish_build(model, qconfig) -> None:
    # spec=QuantConfig path: the stack was built float; quantize it in
    # place so glob overrides see the real layer paths (L0.attn.q, ...).
    if qconfig is not None:
        from repro.api.model import apply_config

        apply_config(model, qconfig)

__all__ = [
    "TransformerConfig",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "TransformerEncoder",
]


def _ff_block(ff1, ff2, h: np.ndarray) -> np.ndarray:
    """``ff2(relu(ff1(h)))`` with the ReLU skipped when ``ff1``'s
    engine already fused it into its epilogue (bit-identical either
    way); unfused, the ReLU runs in place on ``ff1``'s output buffer.
    """
    inner = ff1(h)
    if getattr(ff1, "fused_activation", None) is None:
        inner = relu(inner, out=inner)
    return ff2(inner)


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture hyper-parameters.

    ``dim`` is the paper's hidden size ``n``; ``ff_dim`` defaults to
    ``4 * dim`` as in the paper's feed-forward description.
    """

    dim: int
    heads: int
    ff_dim: int
    layers: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.dim, "dim")
        check_positive_int(self.heads, "heads")
        check_positive_int(self.ff_dim, "ff_dim")
        check_positive_int(self.layers, "layers")
        if self.dim % self.heads != 0:
            raise ValueError(
                f"heads={self.heads} must divide dim={self.dim}"
            )


def _init(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    # Xavier-style scale so activations stay O(1) through deep stacks.
    return rng.standard_normal((m, n)) / np.sqrt(n)


class TransformerEncoderLayer:
    """Self-attention + feed-forward with residuals and post-layernorm."""

    def __init__(
        self,
        config: TransformerConfig,
        rng: np.random.Generator,
        *,
        spec: QuantSpec | None = None,
    ):
        spec, qconfig = split_builder_spec(spec)
        d, f = config.dim, config.ff_dim
        self.config = config
        self.attn = MultiHeadAttention(
            _init(rng, d, d),
            _init(rng, d, d),
            _init(rng, d, d),
            _init(rng, d, d),
            heads=config.heads,
            spec=spec,
        )
        self.ff1 = make_linear(_init(rng, f, d), np.zeros(f), spec=spec)
        self.ff2 = make_linear(_init(rng, d, f), np.zeros(d), spec=spec)
        _finish_build(self, qconfig)

    def __call__(
        self, x: np.ndarray, *, mask: np.ndarray | None = None, cache=None
    ) -> np.ndarray:
        """Apply to ``(batch, seq, dim)`` activations.

        With *cache* (an empty :class:`repro.gen.KVCache`, batch 1)
        this is the prefill of an incremental sequence: the layer's
        projected K/V land in the cache for later :meth:`step_many`
        calls.
        """
        h = layer_norm(x + self.attn(x, mask=mask, cache=cache))
        return layer_norm(h + _ff_block(self.ff1, self.ff2, h))

    def step_many(self, x: np.ndarray, caches) -> np.ndarray:
        """One decode step for several sequences: ``(n, 1, dim)``
        activations against the matching cache list -- self-attention
        over each cache (which the new token joins), then
        feed-forward.  Residuals and layernorm are per-row, so each row
        is bit-identical to the last position of a causally masked
        ``__call__`` over that sequence's prefix (see
        :meth:`MultiHeadAttention.step_many`)."""
        h = layer_norm(x + self.attn.step_many(x, caches))
        return layer_norm(h + _ff_block(self.ff1, self.ff2, h))


class TransformerDecoderLayer:
    """Masked self-attention, cross-attention, feed-forward (post-norm)."""

    def __init__(
        self,
        config: TransformerConfig,
        rng: np.random.Generator,
        *,
        spec: QuantSpec | None = None,
    ):
        spec, qconfig = split_builder_spec(spec)
        d, f = config.dim, config.ff_dim
        self.config = config
        self.self_attn = MultiHeadAttention(
            _init(rng, d, d),
            _init(rng, d, d),
            _init(rng, d, d),
            _init(rng, d, d),
            heads=config.heads,
            spec=spec,
        )
        self.cross_attn = MultiHeadAttention(
            _init(rng, d, d),
            _init(rng, d, d),
            _init(rng, d, d),
            _init(rng, d, d),
            heads=config.heads,
            spec=spec,
        )
        self.ff1 = make_linear(_init(rng, f, d), np.zeros(f), spec=spec)
        self.ff2 = make_linear(_init(rng, d, f), np.zeros(d), spec=spec)
        _finish_build(self, qconfig)

    def __call__(
        self,
        x: np.ndarray,
        memory: np.ndarray,
        *,
        self_mask: np.ndarray | None = None,
        self_cache=None,
        cross_cache=None,
    ) -> np.ndarray:
        """Decode ``(batch, seq, dim)`` against encoder *memory*.

        The cache pair (empty :class:`repro.gen.KVCache` instances,
        batch 1) makes this the prefill of an incremental decode: the
        self-attention K/V of the prefix land in *self_cache* and the
        projected encoder memory lands in *cross_cache* (frozen -- the
        memory never changes, so steps only re-project the query).
        """
        if self_mask is None:
            seq = np.asarray(x).shape[1]
            self_mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        h = layer_norm(x + self.self_attn(x, mask=self_mask, cache=self_cache))
        h = layer_norm(h + self.cross_attn(h, memory, cache=cross_cache))
        return layer_norm(h + _ff_block(self.ff1, self.ff2, h))

    def step(self, x: np.ndarray, self_cache, cross_cache) -> np.ndarray:
        """One decode step over ``(1, 1, dim)`` against the cache pair.

        *cross_cache* must have been populated (and frozen) by a
        prefill ``__call__``; *self_cache* grows by the new token."""
        h = layer_norm(x + self.self_attn.step_many(x, [self_cache]))
        h = layer_norm(h + self.cross_attn.step_many(h, [cross_cache]))
        return layer_norm(h + _ff_block(self.ff1, self.ff2, h))


class TransformerEncoder:
    """A stack of encoder layers (``config.layers`` deep)."""

    def __init__(
        self,
        config: TransformerConfig,
        rng: np.random.Generator,
        *,
        spec: QuantSpec | None = None,
    ):
        spec, qconfig = split_builder_spec(spec)
        self.config = config
        self.layers = [
            TransformerEncoderLayer(config, rng, spec=spec)
            for _ in range(config.layers)
        ]
        _finish_build(self, qconfig)

    def __call__(
        self, x: np.ndarray, *, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Run all layers over ``(batch, seq, dim)`` input."""
        h = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            h = layer(h, mask=mask)
        return h

    def init_cache(self, *, workspace=None, reserve: int | None = None):
        """Fresh per-layer KV caches for one incremental sequence.

        *workspace* must be long-lived (see :class:`repro.gen.KVCache`);
        *reserve* hints the initial bucket capacity (e.g. the prompt
        length plus the expected generation budget).
        """
        from repro.gen.cache import KVCache

        kwargs = {} if reserve is None else {"reserve": reserve}
        return [
            KVCache(
                self.config.heads,
                self.config.dim // self.config.heads,
                workspace=workspace,
                **kwargs,
            )
            for _ in self.layers
        ]

    def prefill(
        self, x: np.ndarray, caches, *, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched forward over the prompt that populates *caches*.

        *x* is ``(1, prompt, dim)``; *caches* is :meth:`init_cache`'s
        list (one per layer, all empty).  For the later steps to be
        bit-identical to a full recompute, *mask* must be the causal
        mask the recompute would use.
        """
        if len(caches) != len(self.layers):
            raise ValueError(
                f"expected {len(self.layers)} caches, got {len(caches)}"
            )
        h = np.asarray(x, dtype=np.float64)
        for layer, cache in zip(self.layers, caches):
            h = layer(h, mask=mask, cache=cache)
        return h

    def step_many(self, x: np.ndarray, cache_lists) -> np.ndarray:
        """One decode step for several sequences through the stack.

        *x* is ``(n, 1, dim)``; *cache_lists* holds one per-layer cache
        list (:meth:`init_cache`) per sequence.  Each output row is
        bit-identical to stepping that sequence alone (``n = 1``) --
        the scheduler's continuous-batching correctness contract.
        """
        for caches in cache_lists:
            if len(caches) != len(self.layers):
                raise ValueError(
                    f"expected {len(self.layers)} caches per sequence, "
                    f"got {len(caches)}"
                )
        h = np.asarray(x, dtype=np.float64)
        for j, layer in enumerate(self.layers):
            h = layer.step_many(h, [caches[j] for caches in cache_lists])
        return h
