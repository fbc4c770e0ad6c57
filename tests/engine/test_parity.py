"""Cross-backend parity: every registered engine against the oracle.

The reference is the dense Eq. 2 product
(:meth:`repro.quant.bcq.BCQTensor.matmul_dense`, the same semantics as
:meth:`repro.core.kernel.BiQGemm.matmul_reference`): lossless engines
must match it to float tolerance on every input the layer stack can
produce -- float32, non-contiguous views, and bare vectors -- while the
lossy engines (quantized activations) must stay strongly correlated.
"""

import numpy as np
import pytest

from repro.engine import (
    EngineBuildRequest,
    QuantSpec,
    build_engine,
    lossless_engines,
    registered_engines,
)

M, N, B = 12, 24, 6


@pytest.fixture()
def compiled(rng):
    spec = QuantSpec(bits=2, mu=4)
    request = EngineBuildRequest(
        spec=spec, weight=rng.standard_normal((M, N))
    )
    return request


def _reference(request, x):
    return request.get_bcq().matmul_dense(x)


def _inputs(rng):
    x64 = rng.standard_normal((N, B))
    x32 = x64.astype(np.float32)
    # Non-contiguous: a transposed view, as QuantLinear produces from
    # row-vector activations, plus a strided column slice.
    noncontig_t = np.ascontiguousarray(x64.T).T
    strided = rng.standard_normal((N, 2 * B))[:, ::2]
    vector = rng.standard_normal(N)
    return {
        "float64": x64,
        "float32": x32,
        "transposed-view": noncontig_t,
        "strided": strided,
        "vector": vector,
    }


@pytest.mark.parametrize("backend", sorted(lossless_engines()))
@pytest.mark.parametrize(
    "kind", ["float64", "float32", "transposed-view", "strided", "vector"]
)
def test_lossless_engines_match_reference(rng, compiled, backend, kind):
    engine = build_engine(backend, compiled)
    x = _inputs(rng)[kind]
    atol = 1e-5 if x.dtype == np.float32 else 1e-9
    out = np.asarray(engine.matmul(x), dtype=np.float64)
    ref = _reference(compiled, x)
    if x.ndim == 1:
        ref = ref[:, 0]
    assert out.shape == ref.shape, backend
    assert np.allclose(out, ref, atol=atol), (backend, kind)


@pytest.mark.parametrize(
    "backend", sorted(set(registered_engines()) - set(lossless_engines()))
)
def test_lossy_engines_correlate_with_reference(rng, compiled, backend):
    engine = build_engine(backend, compiled)
    x = rng.standard_normal((N, B))
    out = np.asarray(engine.matmul(x), dtype=np.float64)
    ref = _reference(compiled, x)
    if backend == "int8":
        # Different quantization family: compare against its own grid.
        ref = engine.dequantized() @ x
    corr = np.corrcoef(out.ravel(), ref.ravel())[0, 1]
    assert corr > 0.95, backend


def test_biqgemm_internal_oracle_agrees(rng, compiled):
    """BiQGemm.matmul_reference and the BCQ dense product are one oracle."""
    engine = build_engine("biqgemm", compiled)
    x = rng.standard_normal((N, B))
    assert np.allclose(
        engine.matmul_reference(x), _reference(compiled, x), atol=1e-9
    )


@pytest.mark.parametrize("backend", sorted(lossless_engines()))
def test_float32_stays_float32(rng, compiled, backend):
    """No engine silently upcasts float32 activations (dtype satellite)."""
    engine = build_engine(backend, compiled)
    out = engine.matmul(rng.standard_normal((N, B)).astype(np.float32))
    assert out.dtype == np.float32, backend
