"""Contract: a quantized layer answers each row of a batch as it answers
that row alone.

A ``QuantLinear`` holds one engine for every batch: ``"auto"`` is
planned once, at ``batch_hint`` (batch 1 when unset), and every engine
is batch-invariant by construction, so a layer hands a batch to its
engine in one call.  Over generated layers (widths 1-64), backends
``auto``, ``biqgemm``, ``dense`` and ``int8``, an unset
or set ``batch_hint``, float32 and float64, bits 1-3 and batches 1-40,
each row of the batched output has the bytes of the row computed
alone, for a bare layer and through an un-compiled ``quantize(model)``.
The explicit examples put a 16x16 3-bit ``auto`` layer, whose roofline
crossover on the ``pc`` model is batch 4, at batches on both sides of
it.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import QuantConfig, quantize
from repro.api.model import QuantMLP
from repro.engine import QuantSpec
from repro.nn.linear import Linear, QuantLinear

SPEC = dict(
    backend=st.sampled_from(("auto", "biqgemm", "dense", "int8")),
    batch_hint=st.none() | st.integers(1, 512),
    dtype=st.sampled_from((np.float32, np.float64)),
    bits=st.integers(1, 3),
    batch=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
CROSSOVER = dict(
    m=16, n=16, backend="auto", batch_hint=None, bits=3, batch=8, seed=0
)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _check_rows_alone(fn, x):
    full = fn(x)
    assert full.dtype == x.dtype
    for i in range(len(x)):
        assert _bits(fn(x[i : i + 1])[0]) == _bits(full[i]), i


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 64), n=st.integers(1, 64), **SPEC)
@example(dtype=np.float64, **CROSSOVER)
@example(dtype=np.float32, **CROSSOVER)
@example(dtype=np.float32, **{**CROSSOVER, "backend": "int8"})
def test_layer_rows_match_alone(
    m, n, backend, batch_hint, dtype, bits, batch, seed
):
    rng = np.random.default_rng(seed)
    layer = QuantLinear(
        rng.standard_normal((m, n)),
        rng.standard_normal(m),
        spec=QuantSpec(bits=bits, backend=backend, batch_hint=batch_hint),
    )
    _check_rows_alone(layer, rng.standard_normal((batch, n)).astype(dtype))


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.integers(1, 48), min_size=2, max_size=4), **SPEC
)
@example(dims=[16, 16, 16], dtype=np.float64, **{
    k: v for k, v in CROSSOVER.items() if k not in ("m", "n")
})
@example(dims=[16, 16, 16], dtype=np.float64, **{
    **{k: v for k, v in CROSSOVER.items() if k not in ("m", "n")},
    "backend": "int8",
})
# The 10->1 layer plans onto ``dense`` and gets its input as a
# transposed view of the first layer's output: strided columns.
@example(
    dims=[5, 10, 1], backend="auto", batch_hint=None, dtype=np.float32,
    bits=1, batch=2, seed=0,
)
def test_uncompiled_model_rows_match_alone(
    dims, backend, batch_hint, dtype, bits, batch, seed
):
    rng = np.random.default_rng(seed)
    layers = [
        Linear(rng.standard_normal((m, n)), rng.standard_normal(m))
        for n, m in zip(dims[:-1], dims[1:])
    ]
    model = quantize(
        QuantMLP(layers),
        QuantConfig(bits=bits, backend=backend, batch_hint=batch_hint),
    )
    _check_rows_alone(
        model, rng.standard_normal((batch, dims[0])).astype(dtype)
    )
