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
