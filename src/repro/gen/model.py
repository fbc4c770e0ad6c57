"""DecoderLM: the decoder-only transformer the generate loop drives.

BiQGEMM's Fig. 10 workload is a language model emitting one token at a
time: every projection is an ``(m, n) x (n, 1)`` GEMV against resident
quantized weights.  :class:`DecoderLM` is that model -- token
embedding, sinusoidal positions, a causal
:class:`~repro.nn.transformer.TransformerEncoder` stack, and a
vocabulary head -- with the incremental API (:meth:`DecoderLM.prefill`
/ :meth:`DecoderLM.step`) the KV-cache machinery needs and the
seed-reproducible construction the whole-model artifact needs (float
embeddings are *regenerated* from the seed at load time, never
serialized; quantized projections ship as engine payloads).

Bit-identity and engine invariance
----------------------------------
A KV-cached :meth:`step` is bit-identical to the last position of the
full causal recompute only if every projection engine computes each
activation *column* identically whether it arrives alone (the step's
GEMV) or alongside the rest of the prefix (the recompute's batched
GEMM).  Every engine a quantized layer can hold is column-invariant by
construction: BiQGEMM's tiled kernels fold each column on its own,
``dense`` runs one GEMV per column (a stacked ``matmul``), and
``int8`` quantizes activations per column and multiplies exactly in
integers.  So a layer hands a whole prefill or decode tick to its
engine in one call, and the bits still match the lone step.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.nn.embedding import Embedding, positional_encoding
from repro.nn.linear import QuantSpec, make_linear, split_builder_spec
from repro.nn.transformer import TransformerConfig, TransformerEncoder

__all__ = ["DecoderLM", "causal_mask"]


def causal_mask(seq: int) -> np.ndarray:
    """The ``(seq, seq)`` boolean mask hiding future positions
    (``True`` = masked out), shared by recompute and prefill so both
    see identical bits."""
    check_positive_int(seq, "seq")
    return np.triu(np.ones((seq, seq), dtype=bool), k=1)


class DecoderLM:
    """Decoder-only causal transformer language model.

    Parameters
    ----------
    config:
        The stack architecture (:class:`TransformerConfig`).
    vocab_size:
        Token vocabulary; the embedding table and head are
        ``(vocab_size, dim)``.
    seed:
        Seed of the weight-initialization RNG.  Kept on the instance:
        the whole-model artifact records it and regenerates the float
        embedding/positional state bit-exactly at load, shipping only
        the quantized engine payloads.
    rng:
        Explicit generator instead of *seed* (mutually exclusive).  A
        model built this way cannot be saved as an artifact -- its
        float state is not reproducible from a recorded seed.
    spec:
        Optional :class:`~repro.nn.linear.QuantSpec` quantizing every
        projection and the head, or a whole-model
        :class:`~repro.api.QuantConfig` (override paths enumerate as
        ``L0.attn.q`` ... ``L1.ffn.ff1`` ..., ``lm_head``).
    """

    def __init__(
        self,
        config: TransformerConfig,
        vocab_size: int,
        *,
        seed: int | None = 0,
        rng: np.random.Generator | None = None,
        spec: QuantSpec | None = None,
    ):
        check_positive_int(vocab_size, "vocab_size")
        if vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if rng is not None:
            if seed not in (None, 0):
                raise ValueError("pass either seed or rng, not both")
            seed = None
        else:
            rng = np.random.default_rng(seed)
        spec, qconfig = split_builder_spec(spec)
        self.config = config
        self.vocab_size = int(vocab_size)
        self.seed = seed
        d = config.dim
        # RNG consumption order is the artifact's reproducibility
        # contract: embedding table, then the stack, then the head.
        self.embedding = Embedding(
            rng.standard_normal((vocab_size, d)) / np.sqrt(d)
        )
        self.stack = TransformerEncoder(config, rng, spec=spec)
        self.lm_head = make_linear(
            rng.standard_normal((vocab_size, d)) / np.sqrt(d), spec=spec
        )
        self._pos = positional_encoding(1, d)
        if qconfig is not None:
            from repro.api.model import apply_config

            apply_config(self, qconfig)

    # ------------------------------------------------------------------
    def _positions(self, length: int) -> np.ndarray:
        """Rows ``0..length-1`` of the positional table (grown on
        demand; each row is independent of the table length, so growth
        never changes existing bits)."""
        if self._pos.shape[0] < length:
            size = self._pos.shape[0]
            while size < length:
                size *= 2
            self._pos = positional_encoding(size, self.config.dim)
        return self._pos[:length]

    def _check_ids(self, ids) -> np.ndarray:
        arr = np.asarray(ids)
        if arr.ndim != 2:
            raise ValueError(
                f"token ids must be (batch, len), got {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(f"token ids must be integers, got {arr.dtype}")
        if arr.size:
            # Out-of-range ids must fail loudly here: negative ids
            # would otherwise wrap silently through numpy indexing into
            # the wrong embedding row, and ids >= vocab_size would
            # surface as an IndexError deep in the forward (a 500 at
            # the serving boundary instead of a 400 ValueError).
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi >= self.vocab_size:
                raise ValueError(
                    f"token ids must be in [0, {self.vocab_size}), got "
                    f"values in [{lo}, {hi}]"
                )
        return arr

    def _embed(self, ids: np.ndarray) -> np.ndarray:
        return self.embedding(ids) + self._positions(ids.shape[1])[None]

    # ------------------------------------------------------------------
    def __call__(self, ids: np.ndarray) -> np.ndarray:
        """Full causal forward: ids ``(batch, seq)`` -> logits
        ``(batch, seq, vocab)``.

        The recompute reference for the incremental path: position
        ``t``'s logits here are bit-identical to the :meth:`step` that
        produced token ``t+1`` (quantized models; see the module
        docstring).
        """
        ids = self._check_ids(ids)
        h = self.stack(self._embed(ids), mask=causal_mask(ids.shape[1]))
        return self.lm_head(h)

    def init_cache(self, *, workspace=None, reserve: int | None = None):
        """Per-layer :class:`~repro.gen.KVCache` list for one sequence
        (see :meth:`TransformerEncoder.init_cache`)."""
        return self.stack.init_cache(workspace=workspace, reserve=reserve)

    def prefill(self, ids: np.ndarray, caches) -> np.ndarray:
        """Batched pass over the prompt ``(1, prompt_len)`` populating
        *caches*; returns the last position's logits ``(1, vocab)``."""
        ids = self._check_ids(ids)
        if ids.shape[0] != 1:
            raise ValueError(
                f"prefill handles one sequence, got batch {ids.shape[0]}"
            )
        if not ids.shape[1]:
            raise ValueError("prefill needs a non-empty prompt")
        h = self.stack.prefill(
            self._embed(ids), caches, mask=causal_mask(ids.shape[1])
        )
        return self.lm_head(h[:, -1, :])

    def step(self, token: int, caches) -> np.ndarray:
        """One decode step: *token* joins the sequence at position
        ``caches[0].length``; returns next-token logits ``(1, vocab)``.
        It is :meth:`step_many` of one sequence."""
        if not caches:
            raise ValueError("step needs the prefilled cache list")
        return self.step_many([token], [caches])

    def step_many(self, tokens, cache_lists) -> np.ndarray:
        """One decode step for several sequences at once.

        *tokens* is one new token id per sequence; *cache_lists* the
        matching per-sequence cache lists (each at its own position).
        Returns ``(n, vocab)`` logits, each row bit-identical to a lone
        :meth:`step` for that sequence -- the continuous-batching
        scheduler coalesces concurrent decodes through here so all
        projections share one engine call per layer.
        """
        if not cache_lists:
            raise ValueError("step_many needs at least one sequence")
        if len(tokens) != len(cache_lists):
            raise ValueError(
                f"got {len(tokens)} tokens for {len(cache_lists)} caches"
            )
        positions = [caches[0].length for caches in cache_lists]
        ids = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
        table = self._positions(max(positions) + 1)
        x = self.embedding(ids) + table[positions][:, None, :]
        h = self.stack.step_many(x, cache_lists)
        return self.lm_head(h[:, -1, :])


# The model walker collapses the ``stack`` segment so layer paths
# enumerate exactly like the encoder builders' (``L0.attn.q``, ...,
# ``lm_head``): one override glob speaks to both model families.
from repro.api.model import _ATTR_ALIASES as _API_ATTR_ALIASES  # noqa: E402

_API_ATTR_ALIASES[DecoderLM] = {"stack": ""}
