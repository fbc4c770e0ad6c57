"""Contract: KV-cached decode equals the causal recompute, byte for byte.

Over generated continuous-batching schedules -- 1-4 sequences, prompts
of 1-40 tokens, 1-12 decode steps each, sequences joining at different
ticks, and a cache ``reserve`` below each sequence's final length so
caches grow mid-sequence -- every row a ``DecoderLM.step_many`` tick
returns equals the logits the full causal forward computes at that
position, and each prefill equals the forward at the prompt's last
position.  All caches share one KV arena, as the serving scheduler's
do.  ``DecoderLM.step`` is a one-sequence tick, so this also covers
lone steps and batched rows against each other.

It holds on every registered engine: ``biqgemm``, ``dense`` and
``int8`` are batch-invariant by construction (see
:mod:`repro.gen.model`).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.workspace import Workspace
from repro.engine import registered_engines
from repro.gen.model import DecoderLM
from repro.nn.linear import QuantSpec
from repro.nn.transformer import TransformerConfig

CONFIG = TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2)
VOCAB = 50

_MODELS: dict[str, DecoderLM] = {}


def _model(backend: str) -> DecoderLM:
    if backend not in _MODELS:
        _MODELS[backend] = DecoderLM(
            CONFIG, VOCAB, seed=3,
            spec=QuantSpec(bits=2, mu=4, backend=backend),
        )
    return _MODELS[backend]


@st.composite
def sequences(draw):
    """``(prompt_len, steps, start_tick, reserve, seed)`` of one
    sequence; *reserve* is below its final length."""
    prompt_len = draw(st.integers(1, 40))
    steps = draw(st.integers(1, 12))
    start = draw(st.integers(0, 4))
    reserve = draw(st.integers(1, prompt_len + steps - 1))
    seed = draw(st.integers(0, 2**16))
    return prompt_len, steps, start, reserve, seed


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = np.dtype(f"u{want.dtype.itemsize}")
    assert np.array_equal(got.view(uint), want.view(uint))


@pytest.mark.parametrize("backend", registered_engines())
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=st.lists(sequences(), min_size=1, max_size=4))
# The cache grows from 32 to 64 positions between decode steps ...
@example(schedule=[(25, 12, 0, 1, 0)])
# ... and in the prefill of one sequence while another decodes.
@example(schedule=[(3, 12, 0, 2, 1), (40, 3, 2, 8, 2)])
def test_step_many_rows_equal_recompute(backend, schedule):
    model = _model(backend)
    arena = Workspace(name="kv")
    ids = [
        np.random.default_rng(seed).integers(
            0, VOCAB, size=(1, prompt_len + steps)
        )
        for prompt_len, steps, _, _, seed in schedule
    ]
    full = [model(seq_ids) for seq_ids in ids]
    caches = [None] * len(schedule)
    positions = [0] * len(schedule)
    try:
        tick = 0
        while True:
            for i, (prompt_len, _, start, reserve, _) in enumerate(schedule):
                if start == tick:
                    caches[i] = model.init_cache(
                        workspace=arena, reserve=reserve
                    )
                    _same_bits(
                        model.prefill(ids[i][:, :prompt_len], caches[i]),
                        full[i][:, prompt_len - 1, :],
                    )
                    positions[i] = prompt_len
            live = [
                i
                for i, seq_ids in enumerate(ids)
                if caches[i] is not None and positions[i] < seq_ids.shape[1]
            ]
            if not live and tick >= max(s[2] for s in schedule):
                break
            if live:
                rows = model.step_many(
                    [int(ids[i][0, positions[i]]) for i in live],
                    [caches[i] for i in live],
                )
                for row, i in zip(rows, live):
                    _same_bits(row, full[i][0, positions[i], :])
                    positions[i] += 1
            tick += 1
        for i, seq_ids in enumerate(ids):
            assert caches[i][0].length == seq_ids.shape[1]
            assert caches[i][0].capacity >= seq_ids.shape[1]
    finally:
        for seq_caches in caches:
            for cache in seq_caches or ():
                cache.close()
