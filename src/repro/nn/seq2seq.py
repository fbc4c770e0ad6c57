"""Full encoder-decoder Transformer with greedy decoding.

The paper's Table I workload is an En-De NMT Transformer; this module
assembles the complete inference path -- embeddings, positional
encodings, encoder stack, decoder stack with causal masking, and the
vocabulary generator -- on top of the pluggable linear backends, so a
whole translation step can execute with every projection on BiQGEMM.
Greedy decoding is the paper's motivating regime: each decode step is
GEMV-like, and with ``QuantSpec(backend="auto")`` every projection
plans its one engine at the spec's ``batch_hint`` (batch 1 when unset,
the decode step).
(Weights here are random; the point is the runnable system and the
float-vs-quantized output comparison, not trained translation quality --
see DESIGN.md Section 2 on the BLEU substitution.)
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.nn.embedding import Embedding, positional_encoding
from repro.nn.linear import QuantSpec, make_linear, split_builder_spec
from repro.nn.transformer import (
    TransformerConfig,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
)

__all__ = ["Seq2SeqTransformer"]


class Seq2SeqTransformer:
    """Encoder-decoder Transformer for sequence-to-sequence inference.

    Parameters
    ----------
    config:
        Shared encoder/decoder architecture.
    vocab_size:
        Token vocabulary (shared between source and target).
    rng:
        Generator for the (Xavier-scaled) random weights.
    spec:
        Optional quantization spec applied to every projection,
        including the generator; or a whole-model
        :class:`~repro.api.QuantConfig` (override paths enumerate as
        ``enc0.attn.q`` ... ``dec0.ffn.ff1`` ... ``generator``).
    """

    def __init__(
        self,
        config: TransformerConfig,
        vocab_size: int,
        rng: np.random.Generator,
        *,
        spec: QuantSpec | None = None,
    ):
        check_positive_int(vocab_size, "vocab_size")
        spec, qconfig = split_builder_spec(spec)
        if vocab_size < 4:
            raise ValueError("vocab_size must be >= 4 (bos/eos/pad + tokens)")
        self.config = config
        self.vocab_size = vocab_size
        d = config.dim
        self.embedding = Embedding(
            rng.standard_normal((vocab_size, d)) / np.sqrt(d)
        )
        self.encoder_layers = [
            TransformerEncoderLayer(config, rng, spec=spec)
            for _ in range(config.layers)
        ]
        self.decoder_layers = [
            TransformerDecoderLayer(config, rng, spec=spec)
            for _ in range(config.layers)
        ]
        self.generator = make_linear(
            rng.standard_normal((vocab_size, d)) / np.sqrt(d), spec=spec
        )
        if qconfig is not None:
            from repro.api.model import apply_config

            apply_config(self, qconfig)

    # ------------------------------------------------------------------
    def encode(self, src_ids: np.ndarray) -> np.ndarray:
        """Source token ids ``(batch, src_len)`` -> memory
        ``(batch, src_len, dim)``."""
        ids = self._check_ids(src_ids)
        h = self.embedding(ids) + positional_encoding(
            ids.shape[1], self.config.dim
        )[None]
        for layer in self.encoder_layers:
            h = layer(h)
        return h

    def decode_step(
        self, tgt_ids: np.ndarray, memory: np.ndarray
    ) -> np.ndarray:
        """Target prefix ``(batch, t)`` -> next-token logits
        ``(batch, vocab)``."""
        ids = self._check_ids(tgt_ids)
        h = self.embedding(ids) + positional_encoding(
            ids.shape[1], self.config.dim
        )[None]
        for layer in self.decoder_layers:
            h = layer(h, memory)
        return self.generator(h[:, -1, :])

    def greedy_decode(
        self,
        src_ids: np.ndarray,
        *,
        bos: int = 1,
        eos: int = 2,
        max_len: int = 16,
    ) -> np.ndarray:
        """Greedy autoregressive decoding.

        Returns generated ids ``(batch, <=max_len)`` including the BOS
        column; rows stop extending (repeat EOS) once EOS is emitted.

        Each row decodes incrementally against per-layer KV caches
        (:class:`repro.gen.KVCache`): the self-attention prefix and the
        projected encoder memory are computed once, so every new token
        costs one GEMV sweep instead of re-running the whole prefix --
        the batch-1 regime the paper's kernels target."""
        check_positive_int(max_len, "max_len")
        for tok, name in ((bos, "bos"), (eos, "eos")):
            if not 0 <= tok < self.vocab_size:
                raise ValueError(f"{name}={tok} outside vocabulary")
        ids = self._check_ids(src_ids)
        memory = self.encode(ids)
        rows = [
            self._greedy_row(memory[i : i + 1], bos, eos, max_len)
            for i in range(ids.shape[0])
        ]
        width = max(len(row) for row in rows)
        out = np.full((len(rows), width), eos, dtype=np.int64)
        for i, row in enumerate(rows):
            out[i, : len(row)] = row
        return out

    def _greedy_row(
        self, memory: np.ndarray, bos: int, eos: int, max_len: int
    ) -> list[int]:
        """Cached greedy decode of one sequence against its memory row.

        The first (BOS) position is a prefill ``__call__`` populating
        each decoder layer's self-attention cache and frozen
        cross-attention cache; every later position is a
        :meth:`~repro.nn.transformer.TransformerDecoderLayer.step`.
        """
        from repro.gen.cache import KVCache

        heads = self.config.heads
        head_dim = self.config.dim // heads
        self_caches = [KVCache(heads, head_dim) for _ in self.decoder_layers]
        cross_caches = [KVCache(heads, head_dim) for _ in self.decoder_layers]
        tokens = [bos]
        try:
            h = self.embedding(
                np.array([[bos]])
            ) + positional_encoding(1, self.config.dim)[None]
            for layer, sc, cc in zip(
                self.decoder_layers, self_caches, cross_caches
            ):
                h = layer(h, memory, self_cache=sc, cross_cache=cc)
            logits = self.generator(h[:, -1, :])
            while len(tokens) < max_len:
                nxt = int(np.argmax(logits))
                tokens.append(nxt)
                if nxt == eos:
                    break
                t = len(tokens) - 1
                h = self.embedding(
                    np.array([[nxt]])
                ) + positional_encoding(t + 1, self.config.dim)[t][None, None]
                for layer, sc, cc in zip(
                    self.decoder_layers, self_caches, cross_caches
                ):
                    h = layer.step(h, sc, cc)
                logits = self.generator(h[:, -1, :])
        finally:
            for cache in (*self_caches, *cross_caches):
                cache.close()
        return tokens

    # ------------------------------------------------------------------
    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        arr = np.asarray(ids)
        if arr.ndim != 2:
            raise ValueError(f"token ids must be (batch, len), got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(f"token ids must be integers, got {arr.dtype}")
        return arr
