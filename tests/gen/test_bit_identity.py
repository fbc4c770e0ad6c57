"""The tentpole invariant: KV-cached decode == full recompute, bitwise.

Every registered engine must produce *bit-identical* logits whether a
position is computed by the batched causal recompute or by a
single-token ``step()`` against the KV cache -- the contract that makes
incremental decoding a pure optimization.  ``step_many`` (continuous
batching) must likewise match per-sequence ``step()`` exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import registered_engines
from repro.gen.cache import MIN_BUCKET
from repro.gen.model import DecoderLM
from repro.nn.linear import QuantSpec
from repro.nn.transformer import TransformerConfig

BACKENDS = registered_engines()

CONFIG = TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2)
VOCAB = 50


def _model(backend: str) -> DecoderLM:
    return DecoderLM(
        CONFIG, VOCAB, seed=3, spec=QuantSpec(bits=2, mu=4, backend=backend)
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestStepMatchesRecompute:
    def test_prefill_and_steps_bit_identical(self, backend, rng):
        model = _model(backend)
        ids = rng.integers(0, VOCAB, size=(1, 10))
        full = model(ids)  # (1, 10, vocab) causal recompute
        caches = model.init_cache()
        try:
            prefill = model.prefill(ids[:, :5], caches)
            np.testing.assert_array_equal(prefill, full[:, 4, :])
            for t in range(5, 10):
                step = model.step(int(ids[0, t]), caches)
                np.testing.assert_array_equal(step, full[:, t, :])
        finally:
            for cache in caches:
                cache.close()

    def test_step_many_matches_sequential_steps(self, backend, rng):
        model = _model(backend)
        prompts = [
            rng.integers(0, VOCAB, size=(1, length)) for length in (3, 5, 7)
        ]
        seq_caches = [model.init_cache() for _ in prompts]
        many_caches = [model.init_cache() for _ in prompts]
        try:
            tokens = []
            for prompt, cs, cm in zip(prompts, seq_caches, many_caches):
                logits = model.prefill(prompt, cs)
                model.prefill(prompt, cm)
                tokens.append(int(np.argmax(logits)))
            for _ in range(3):
                reference = [
                    model.step(tok, cs)
                    for tok, cs in zip(tokens, seq_caches)
                ]
                batched = model.step_many(tokens, many_caches)
                for i, ref in enumerate(reference):
                    np.testing.assert_array_equal(batched[i], ref[0])
                tokens = [int(np.argmax(row)) for row in batched]
        finally:
            for caches in (*seq_caches, *many_caches):
                for cache in caches:
                    cache.close()


class TestLongSequences:
    def test_steps_stay_identical_across_cache_growth(self, rng):
        # Decoding past MIN_BUCKET forces a bucket growth mid-sequence;
        # the copied prefix must keep every later step bit-identical.
        model = _model("biqgemm")
        length = MIN_BUCKET + 8
        ids = rng.integers(0, VOCAB, size=(1, length))
        full = model(ids)
        caches = model.init_cache(reserve=MIN_BUCKET)
        try:
            model.prefill(ids[:, :4], caches)
            for t in range(4, length):
                step = model.step(int(ids[0, t]), caches)
                np.testing.assert_array_equal(step, full[:, t, :])
            assert caches[0].capacity > MIN_BUCKET
        finally:
            for cache in caches:
                cache.close()


class TestCompiledDecoder:
    """Every layer of a compiled ``DecoderLM`` on the native ``biqgemm``
    engine.

    The engine is batch-invariant by construction, so a layer hands it
    a whole prefill or decode tick in one call -- and the bits still
    match the recompute.
    """

    def _compiled(self):
        from repro.api import QuantConfig, quantize

        model = DecoderLM(CONFIG, VOCAB, seed=3)
        compiled = quantize(model, QuantConfig(bits=3, mu=8)).compile(
            batch_hint=1
        )
        assert set(compiled.plans.values()) == {"biqgemm"}
        return compiled

    def _count_calls(self, monkeypatch):
        from repro.engine.compiled import CompiledKernelEngine

        calls = []
        original = CompiledKernelEngine.matmul

        def counted(engine, x, **kwargs):
            calls.append((id(engine), np.asarray(x).shape[-1]))
            return original(engine, x, **kwargs)

        monkeypatch.setattr(CompiledKernelEngine, "matmul", counted)
        return calls

    def test_prefill_and_ticks_make_one_call_per_layer(
        self, monkeypatch, rng
    ):
        compiled = self._compiled()
        model = compiled.model
        layers = len(compiled.named_layers())
        calls = self._count_calls(monkeypatch)
        prompts = [rng.integers(0, VOCAB, size=(1, n)) for n in (7, 4)]
        caches = [model.init_cache() for _ in prompts]
        try:
            for prompt, cache in zip(prompts, caches):
                calls.clear()
                model.prefill(prompt, cache)
                # Once per layer; the head scores only the last position.
                assert len({engine for engine, _ in calls}) == layers
                assert len(calls) == layers
                assert max(cols for _, cols in calls) == prompt.shape[1]
            calls.clear()
            model.step_many([1, 2], caches)
            assert len({engine for engine, _ in calls}) == layers
            assert [cols for _, cols in calls] == [2] * layers
        finally:
            for cache in (*caches[0], *caches[1]):
                cache.close()

    def test_kv_cached_decode_equals_recompute(self, rng):
        model = self._compiled().model
        ids = rng.integers(0, VOCAB, size=(1, 12))
        full = model(ids)
        caches = model.init_cache()
        try:
            prefill = model.prefill(ids[:, :5], caches)
            np.testing.assert_array_equal(prefill, full[:, 4, :])
            for t in range(5, 12):
                step = model.step(int(ids[0, t]), caches)
                np.testing.assert_array_equal(step, full[:, t, :])
        finally:
            for cache in caches:
                cache.close()
