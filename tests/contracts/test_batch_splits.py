"""Contract: every lossless engine gives a column the same bits in any
batch.

For each engine of :func:`~repro.engine.registry.lossless_engines`
(``biqgemm``, ``dense``), over generated layers (odd and even widths
1-300), bits 1-3, ``mu`` 4-8, float32 and float64 and batches 1-70:
cutting the columns into contiguous slices at generated points gives,
slice by slice, the bits of the whole batch, and a 1-D vector gives the
bits of its column.  A compiled model planned at ``batch_hint=64``
(which puts layers on both engines) then answers each row of a batch
as it answers that row alone.  The native kernel cuts a batch into full
column chunks and a tail of power-of-two widths, so every batch from 1
to 70 is also checked against the columns run one at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import QuantConfig, quantize
from repro.api.model import QuantMLP
from repro.engine import (
    EngineBuildRequest, QuantSpec, build_engine, lossless_engines,
)
from repro.nn.linear import Linear


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("name", lossless_engines())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_column_splits_are_bit_identical(name, data):
    m = data.draw(st.integers(1, 300), label="m")
    n = data.draw(st.integers(1, 300), label="n")
    batch = data.draw(st.integers(1, 70), label="batch")
    bits = data.draw(st.integers(1, 3), label="bits")
    mu = data.draw(st.integers(4, 8), label="mu")
    dtype = data.draw(st.sampled_from((np.float32, np.float64)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    engine = build_engine(
        name,
        EngineBuildRequest(
            spec=QuantSpec(bits=bits, mu=mu, backend=name),
            weight=rng.standard_normal((m, n)),
        ),
    )
    x = rng.standard_normal((n, batch)).astype(dtype)
    full = engine.matmul(x)
    assert full.shape == (m, batch) and full.dtype == dtype
    cuts = data.draw(
        st.lists(st.integers(1, max(1, batch - 1)), max_size=4, unique=True)
    )
    edges = [0, *sorted(c for c in cuts if c < batch), batch]
    for lo, hi in zip(edges, edges[1:]):
        assert _bits(engine.matmul(x[:, lo:hi])) == _bits(full[:, lo:hi])
    j = data.draw(st.integers(0, batch - 1), label="column")
    assert _bits(engine.matmul(x[:, j])) == _bits(full[:, j])


def test_compiled_model_rows_match_alone():
    rng = np.random.default_rng(0)
    dims = (256, 256, 16)
    layers = [
        Linear(rng.standard_normal((m, n)) * 0.1, rng.standard_normal(m))
        for n, m in zip(dims[:-1], dims[1:])
    ]
    compiled = quantize(QuantMLP(layers), QuantConfig(bits=3, mu=8)).compile(
        batch_hint=64
    )
    x = rng.standard_normal((64, dims[0]))
    full = compiled(x)
    for i in range(len(x)):
        assert _bits(compiled(x[i : i + 1])[0]) == _bits(full[i]), i


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_batch_width_matches_its_columns(dtype):
    # m = 37 leaves a partial row block; n = 300 spans several L1
    # sub-tiles of the float64 chunks.
    rng = np.random.default_rng(7)
    engine = build_engine(
        "biqgemm",
        EngineBuildRequest(
            spec=QuantSpec(bits=3, mu=8), weight=rng.standard_normal((37, 300))
        ),
    )
    x = rng.standard_normal((300, 70)).astype(dtype)
    columns = np.stack([engine.matmul(x[:, j]) for j in range(70)], axis=1)
    for batch in range(1, 71):
        got = engine.matmul(x[:, :batch])
        assert _bits(got) == _bits(columns[:, :batch]), batch
