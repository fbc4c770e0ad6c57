"""Contract: a traced forward runs the served kernel and returns its bits.

Observability wraps each ``QuantLinear`` call in an ``engine.matmul``
span, a drift record and a latency histogram sample; the engine call
inside is the one an untraced forward makes.  Over generated compiled
MLPs (every layer planned onto ``biqgemm``, hidden ReLUs fused into
the engine epilogue, widths not divisible by ``mu`` included) and a
zoo encoder (its ``ff1`` ReLUs fused), in float32 and float64 at
batches 1-8:

1. every output under ``obs.enable(tracing=True, drift=True)`` is
   byte-equal to the untraced output;
2. where the native library loads, the traced forward never reaches
   the numpy :class:`~repro.core.kernel.BiQGemm` (the engine's
   fallback), so it timed the kernel that serves.

Without a C compiler every layer serves through the fallback, and (1)
still holds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.api import QuantConfig, quantize
from repro.api.model import QuantMLP
from repro.core.kernel import BiQGemm
from repro.engine import native
from repro.nn.linear import Linear


@st.composite
def mlps(draw):
    """A compiled BCQ MLP, every layer on ``biqgemm``, and its input
    width."""
    mu = draw(st.sampled_from((4, 8)))
    widths = draw(st.lists(st.integers(1, 40), min_size=3, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    layers = [
        Linear(
            rng.standard_normal((widths[i + 1], widths[i])) * 0.2,
            rng.standard_normal(widths[i + 1]) * 0.05,
        )
        for i in range(len(widths) - 1)
    ]
    bits = draw(st.integers(1, 3))
    compiled = quantize(
        QuantMLP(layers), QuantConfig(bits=bits, mu=mu)
    ).compile(batch_hint=1)
    assume(set(compiled.plans.values()) == {"biqgemm"})
    return compiled, widths[0]


@pytest.fixture(scope="module")
def encoder():
    from repro.nn.model_zoo import build_encoder

    model = build_encoder("transformer-base", scale=16, layers=1, seed=0)
    compiled = quantize(model, QuantConfig(bits=2, mu=8)).compile(
        batch_hint=1
    )
    assert set(compiled.plans.values()) == {"biqgemm"}
    return compiled


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts calls of the numpy kernel (the engine's fallback)."""
    calls = []
    real = BiQGemm.matmul

    def spy(self, *args, **kwargs):
        calls.append(self.shape)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(BiQGemm, "matmul", spy)
    return calls


def _check_traced(compiled, x, calls):
    want = compiled(x)
    calls.clear()
    obs.enable(tracing=True, drift=True, clear=True)
    try:
        got = compiled(x)
        spans = obs.get_tracer().spans()
    finally:
        obs.disable()
    _same_bytes(got, want)
    assert any(s.name == "engine.matmul" for s in spans)
    if native.load() is not None:
        assert calls == [], f"traced forward ran the fallback on {calls}"


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


@SETTINGS
@given(
    model=mlps(),
    batch=st.integers(1, 8),
    dtype=st.sampled_from((np.float32, np.float64)),
    seed=st.integers(0, 2**16),
)
def test_traced_mlp_forward_is_the_untraced_forward(
    model, batch, dtype, seed, fallback_calls
):
    compiled, width = model
    assert compiled.model.fc[0].fused_activation == "relu"
    x = np.random.default_rng(seed).standard_normal((batch, width))
    _check_traced(compiled, x.astype(dtype), fallback_calls)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tokens", [1, 3, 8])
def test_traced_encoder_forward_is_the_untraced_forward(
    encoder, dtype, tokens, fallback_calls
):
    dim = encoder.model.config.dim
    x = np.random.default_rng(tokens).standard_normal((1, tokens, dim))
    _check_traced(encoder, x.astype(dtype), fallback_calls)
