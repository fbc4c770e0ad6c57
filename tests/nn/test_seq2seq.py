"""Unit tests for the seq2seq Transformer (repro.nn.seq2seq)."""

import numpy as np
import pytest

from repro.nn.linear import QuantSpec
from repro.nn.seq2seq import Seq2SeqTransformer
from repro.nn.transformer import TransformerConfig

CFG = TransformerConfig(dim=24, heads=4, ff_dim=48, layers=1)


@pytest.fixture()
def model():
    return Seq2SeqTransformer(CFG, 16, np.random.default_rng(0))


class TestEncodeDecode:
    def test_encode_shape(self, model, rng):
        src = rng.integers(0, 16, size=(3, 7))
        assert model.encode(src).shape == (3, 7, 24)

    def test_decode_step_logits(self, model, rng):
        src = rng.integers(0, 16, size=(2, 5))
        memory = model.encode(src)
        tgt = rng.integers(0, 16, size=(2, 3))
        logits = model.decode_step(tgt, memory)
        assert logits.shape == (2, 16)
        assert np.isfinite(logits).all()

    def test_decode_prefix_stability(self, model, rng):
        # Causal decoding: extending the target prefix must not change
        # logits computed from the shorter prefix's last position...
        # (verified indirectly: greedy decode is deterministic and
        # prefix-consistent).
        src = rng.integers(0, 16, size=(1, 5))
        out8 = model.greedy_decode(src, max_len=8)
        out5 = model.greedy_decode(src, max_len=5)
        assert np.array_equal(out8[:, : out5.shape[1]], out5)


class TestGreedyDecode:
    def test_starts_with_bos(self, model, rng):
        src = rng.integers(0, 16, size=(2, 4))
        out = model.greedy_decode(src, bos=1, max_len=6)
        assert (out[:, 0] == 1).all()

    def test_bounded_length(self, model, rng):
        src = rng.integers(0, 16, size=(2, 4))
        out = model.greedy_decode(src, max_len=5)
        assert out.shape[1] <= 5

    def test_eos_sticky(self, model, rng):
        # After EOS appears in a row, only EOS follows.
        src = rng.integers(0, 16, size=(4, 6))
        out = model.greedy_decode(src, eos=2, max_len=10)
        for row in out:
            hits = np.where(row == 2)[0]
            if hits.size:
                assert (row[hits[0]:] == 2).all()

    def test_deterministic(self, model, rng):
        src = rng.integers(0, 16, size=(2, 4))
        a = model.greedy_decode(src, max_len=6)
        b = model.greedy_decode(src, max_len=6)
        assert np.array_equal(a, b)

    def test_memory_depends_on_source(self, model, rng):
        # With random (untrained) weights the greedy argmax may collapse
        # to one token for any source, so compare the continuous
        # quantities: encoder memory and first-step logits must differ.
        s1 = rng.integers(0, 16, size=(1, 6))
        s2 = (s1 + 1) % 16
        m1, m2 = model.encode(s1), model.encode(s2)
        assert not np.allclose(m1, m2)
        bos = np.array([[1]], dtype=np.int64)
        l1 = model.decode_step(bos, m1)
        l2 = model.decode_step(bos, m2)
        assert not np.allclose(l1, l2)

    def test_quantized_model_runs(self, rng):
        q = Seq2SeqTransformer(
            CFG, 16, np.random.default_rng(0), spec=QuantSpec(bits=3, mu=4)
        )
        src = rng.integers(0, 16, size=(2, 4))
        out = q.greedy_decode(src, max_len=6)
        assert out.shape[0] == 2

    def test_rejects_bad_bos(self, model, rng):
        src = rng.integers(0, 16, size=(1, 4))
        with pytest.raises(ValueError, match="bos"):
            model.greedy_decode(src, bos=99)

    def test_cached_decode_matches_full_recompute_argmax_chain(self):
        # The reference re-runs the whole decoder over each row's prefix
        # (decode_step) and takes the argmax.  Seed 3 is one where the
        # untrained model's rows diverge, so with eos=2 some rows stop
        # at their first token while another runs on.
        model = Seq2SeqTransformer(CFG, 16, np.random.default_rng(3))
        src = np.random.default_rng(5).integers(0, 16, size=(3, 6))
        bos, eos, max_len = 1, 2, 10
        memory = model.encode(src)
        chains = []
        for i in range(src.shape[0]):
            chain = [bos]
            while len(chain) < max_len and chain[-1] != eos:
                logits = model.decode_step(
                    np.array([chain]), memory[i : i + 1]
                )
                chain.append(int(np.argmax(logits)))
            chains.append(chain)
        lengths = [len(chain) for chain in chains]
        assert min(lengths) < max(lengths), "no row hit EOS early"
        assert any(c[-1] == eos and len(c) < max_len for c in chains)
        expected = np.full((len(chains), max(lengths)), eos, dtype=np.int64)
        for i, chain in enumerate(chains):
            expected[i, : len(chain)] = chain
        out = model.greedy_decode(src, bos=bos, eos=eos, max_len=max_len)
        assert np.array_equal(out, expected)


class TestValidation:
    def test_rejects_small_vocab(self):
        with pytest.raises(ValueError, match="vocab_size"):
            Seq2SeqTransformer(CFG, 2, np.random.default_rng(0))

    def test_rejects_float_ids(self, model):
        with pytest.raises(TypeError, match="integers"):
            model.encode(np.zeros((1, 3)))

    def test_rejects_1d_ids(self, model):
        with pytest.raises(ValueError, match="batch, len"):
            model.encode(np.zeros(3, dtype=np.int64))
