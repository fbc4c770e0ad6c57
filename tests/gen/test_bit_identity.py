"""KV-cached decode == full recompute on a compiled ``DecoderLM``.

The contract itself -- every ``step_many`` row equals the causal
recompute, over generated schedules and every registered engine -- is
``tests/contracts/test_decode_recompute.py``.  This module keeps the
compiled model's side: its layers on the native ``biqgemm`` engine
with fused epilogues, one engine call per layer per prefill or tick.
"""

from __future__ import annotations

import numpy as np

from repro.gen.model import DecoderLM
from repro.nn.transformer import TransformerConfig

CONFIG = TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2)
VOCAB = 50


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
