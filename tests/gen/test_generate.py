"""CompiledModel.generate: the prefill + GEMV decode loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import QuantConfig, quantize
from repro.api.artifact import load
from repro.gen.model import DecoderLM, causal_mask, mark_batch_invariant
from repro.nn.transformer import TransformerConfig

CONFIG = TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2)
VOCAB = 50


@pytest.fixture()
def compiled():
    model = DecoderLM(CONFIG, VOCAB, seed=3)
    return quantize(
        model, QuantConfig(bits=2, mu=4, backend="biqgemm")
    ).compile(batch_hint=1)


PROMPT = np.array([1, 4, 9, 16, 2])


class TestGenerate:
    def test_greedy_matches_recompute_argmax_chain(self, compiled):
        generated = compiled.generate(PROMPT, 8)
        ids = list(PROMPT)
        for _ in range(8):
            logits = compiled.model(np.array([ids]))
            ids.append(int(np.argmax(logits[0, -1])))
        assert generated == ids[len(PROMPT):]

    def test_greedy_is_deterministic(self, compiled):
        assert compiled.generate(PROMPT, 8) == compiled.generate(PROMPT, 8)

    def test_seeded_sampling_replays(self, compiled):
        kwargs = dict(temperature=0.8, top_k=10, seed=42)
        first = compiled.generate(PROMPT, 8, **kwargs)
        second = compiled.generate(PROMPT, 8, **kwargs)
        assert first == second

    def test_seeds_decorrelate(self, compiled):
        a = compiled.generate(PROMPT, 12, temperature=1.5, seed=1)
        b = compiled.generate(PROMPT, 12, temperature=1.5, seed=2)
        assert a != b

    def test_eos_stops_decoding(self, compiled):
        reference = compiled.generate(PROMPT, 8)
        stopped = compiled.generate(PROMPT, 8, eos_id=reference[2])
        assert stopped == reference[:3]

    def test_repeat_on_warm_kv_arena_is_bit_identical(self, compiled):
        """A second generate reuses the KV blocks the first released."""
        reference = compiled.generate(PROMPT, 8)
        kv = compiled._kv_workspace()
        misses = kv.misses
        assert compiled.generate(PROMPT, 8) == reference
        assert kv.misses == misses

    def test_prompt_shapes(self, compiled):
        flat = compiled.generate(PROMPT, 4)
        batched = compiled.generate(PROMPT[None, :], 4)
        assert flat == batched
        with pytest.raises(ValueError):
            compiled.generate(np.zeros((2, 3), dtype=np.int64), 4)
        with pytest.raises(ValueError):
            compiled.generate(np.array([], dtype=np.int64), 4)

    def test_rejects_models_without_decode_api(self):
        from repro.nn.transformer import TransformerEncoder

        encoder = TransformerEncoder(CONFIG, np.random.default_rng(0))
        cm = quantize(
            encoder, QuantConfig(bits=2, mu=4, backend="biqgemm")
        ).compile(batch_hint=1)
        with pytest.raises(TypeError, match="decode API"):
            cm.generate(PROMPT, 4)


class TestArtifactRoundtrip:
    def test_loaded_model_generates_identically(self, compiled, tmp_path):
        reference = compiled.generate(PROMPT, 8)
        path = tmp_path / "decoder.npz"
        compiled.save(path)
        restored = load(path)
        assert restored.generate(PROMPT, 8) == reference
        ids = PROMPT[None, :]
        np.testing.assert_array_equal(
            restored.model(ids), compiled.model(ids)
        )

    def test_rng_built_model_refuses_save(self, tmp_path):
        model = DecoderLM(CONFIG, VOCAB, rng=np.random.default_rng(5))
        cm = quantize(
            model, QuantConfig(bits=2, mu=4, backend="biqgemm")
        ).compile(batch_hint=1)
        with pytest.raises(ValueError, match="explicit rng"):
            cm.save(tmp_path / "nope.npz")


class TestModelHelpers:
    def test_causal_mask(self):
        mask = causal_mask(3)
        expected = np.array(
            [
                [False, True, True],
                [False, False, True],
                [False, False, False],
            ]
        )
        np.testing.assert_array_equal(mask, expected)

    def test_mark_batch_invariant_counts_quant_layers(self):
        model = DecoderLM(CONFIG, VOCAB, seed=0)
        quantize(model, QuantConfig(bits=2, mu=4, backend="biqgemm"))
        # 2 layers x (4 attention + 2 ffn) + lm_head
        assert mark_batch_invariant(model) == 13

    def test_out_of_range_ids_rejected(self):
        """Negative ids would silently wrap through numpy indexing and
        too-large ids would IndexError deep in the forward (HTTP 500);
        both must fail fast as ValueError (HTTP 400)."""
        model = DecoderLM(CONFIG, VOCAB, seed=0)
        with pytest.raises(ValueError, match=f"\\[0, {VOCAB}\\)"):
            model(np.array([[0, -1]]))
        with pytest.raises(ValueError, match=f"\\[0, {VOCAB}\\)"):
            model(np.array([[VOCAB, 0]]))
        with pytest.raises(ValueError, match=f"\\[0, {VOCAB}\\)"):
            model.prefill(np.array([[VOCAB]]), model.init_cache())

    def test_layer_paths_enumerate_like_encoder(self):
        from repro.api.model import named_quant_layers

        model = DecoderLM(CONFIG, VOCAB, seed=0)
        quantize(model, QuantConfig(bits=2, mu=4, backend="biqgemm"))
        names = [name for name, _ in named_quant_layers(model)]
        assert "L0.attn.q" in names
        assert "L1.ffn.ff2" in names
        assert "lm_head" in names
