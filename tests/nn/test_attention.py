"""Unit tests for multi-head attention (repro.nn.attention)."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadAttention
from repro.nn.linear import QuantSpec


def make_mha(rng, dim=16, heads=4, spec=None):
    ws = [rng.standard_normal((dim, dim)) / np.sqrt(dim) for _ in range(4)]
    return MultiHeadAttention(*ws, heads=heads, spec=spec)


class TestMultiHeadAttention:
    def test_output_shape(self, rng):
        mha = make_mha(rng)
        x = rng.standard_normal((2, 5, 16))
        assert mha(x).shape == (2, 5, 16)

    def test_cross_attention_shape(self, rng):
        mha = make_mha(rng)
        q = rng.standard_normal((2, 3, 16))
        kv = rng.standard_normal((2, 7, 16))
        assert mha(q, kv).shape == (2, 3, 16)

    def test_permutation_equivariance_self_attention(self, rng):
        # Without positions, permuting the sequence permutes the output.
        mha = make_mha(rng)
        x = rng.standard_normal((1, 6, 16))
        perm = rng.permutation(6)
        out = mha(x)
        out_perm = mha(x[:, perm, :])
        assert np.allclose(out_perm, out[:, perm, :], atol=1e-10)

    def test_causal_mask_blocks_future(self, rng):
        # With a causal mask, output at position 0 must not depend on
        # later positions.
        mha = make_mha(rng)
        x1 = rng.standard_normal((1, 5, 16))
        x2 = x1.copy()
        x2[0, 3:, :] = rng.standard_normal((2, 16))
        mask = np.triu(np.ones((5, 5), dtype=bool), k=1)
        o1 = mha(x1, mask=mask)
        o2 = mha(x2, mask=mask)
        assert np.allclose(o1[0, 0], o2[0, 0], atol=1e-10)
        assert np.allclose(o1[0, 2], o2[0, 2], atol=1e-10)
        assert not np.allclose(o1[0, 4], o2[0, 4])

    def test_single_head_matches_multi_head_dims(self, rng):
        mha = make_mha(rng, dim=8, heads=1)
        x = rng.standard_normal((1, 4, 8))
        assert mha(x).shape == (1, 4, 8)

    def test_quantized_close_to_float(self, rng):
        ws = [rng.standard_normal((16, 16)) / 4 for _ in range(4)]
        float_mha = MultiHeadAttention(*ws, heads=4)
        quant_mha = MultiHeadAttention(
            *ws, heads=4, spec=QuantSpec(bits=4, mu=4, method="alternating")
        )
        x = rng.standard_normal((1, 5, 16))
        yf, yq = float_mha(x), quant_mha(x)
        rel = np.linalg.norm(yf - yq) / np.linalg.norm(yf)
        assert rel < 0.35

    def test_rejects_heads_not_dividing_dim(self, rng):
        ws = [rng.standard_normal((10, 10)) for _ in range(4)]
        with pytest.raises(ValueError, match="divide"):
            MultiHeadAttention(*ws, heads=3)

    def test_rejects_mismatched_projection(self, rng):
        with pytest.raises(ValueError, match="wk"):
            MultiHeadAttention(
                rng.standard_normal((8, 8)),
                rng.standard_normal((8, 4)),
                rng.standard_normal((8, 8)),
                rng.standard_normal((8, 8)),
                heads=2,
            )

    def test_rejects_2d_input(self, rng):
        mha = make_mha(rng)
        with pytest.raises(ValueError, match="batch, seq"):
            mha(rng.standard_normal((5, 16)))


class TestFoldHelpers:
    """attn_scores / attn_context: memory-bounded chunked left folds.

    The fold budget only bounds the temporary the contraction
    materializes at once; it must never change bits, or a prefill
    (large product, chunked) would disagree with the decode step
    (small product, single chunk) it is supposed to be bit-identical
    to.
    """

    def _reference(self, q, k):
        # Single-chunk spelling: one outer product, one running cumsum.
        prod = q[..., :, :, None, :] * k[..., None, :, :]
        return np.cumsum(prod, axis=-1, out=prod)[..., -1]

    @pytest.mark.parametrize("budget", [1, 7, 1000])
    def test_scores_bits_independent_of_chunking(
        self, rng, budget, monkeypatch
    ):
        import repro.nn.attention as attention

        q = rng.standard_normal((2, 4, 9, 16))
        k = rng.standard_normal((2, 4, 13, 16))
        reference = self._reference(q, k)
        monkeypatch.setattr(attention, "FOLD_BUDGET_ELEMS", budget)
        assert np.array_equal(attention.attn_scores(q, k), reference)

    @pytest.mark.parametrize("budget", [1, 7, 1000])
    def test_context_bits_independent_of_chunking(
        self, rng, budget, monkeypatch
    ):
        import repro.nn.attention as attention

        attn = rng.random((2, 4, 9, 13))
        v = rng.standard_normal((2, 4, 13, 16))
        prod = attn[..., :, :, None] * v[..., None, :, :]
        reference = np.cumsum(prod, axis=-2, out=prod)[..., -1, :]
        monkeypatch.setattr(attention, "FOLD_BUDGET_ELEMS", budget)
        assert np.array_equal(attention.attn_context(attn, v), reference)
        out = np.empty_like(reference)
        attention.attn_context(attn, v, out=out)
        assert np.array_equal(out, reference)

    def test_fold_temporary_stays_bounded(self, rng):
        """A prefill-sized product must chunk, not materialize the full
        (seq_q, seq_kv, head_dim) outer product (~8.6 GiB at this shape
        in one piece would OOM serving)."""
        import tracemalloc

        from repro.nn.attention import FOLD_BUDGET_ELEMS, attn_scores

        q = rng.standard_normal((1, 8, 512, 64))
        k = rng.standard_normal((1, 8, 512, 64))
        tracemalloc.start()
        attn_scores(q, k)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Budget-sized chunk + the result + carries, with headroom.
        assert peak < 4 * FOLD_BUDGET_ELEMS * 8
