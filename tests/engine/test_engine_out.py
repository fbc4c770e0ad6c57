"""``matmul(out=...)`` on the kernels that accept a destination.

The numpy :class:`~repro.core.kernel.BiQGemm` (parametrized as
``biqgemm``, its ``backend_name``) and the native
:class:`~repro.engine.compiled.CompiledKernelEngine` (parametrized as
``compiled``, its module; the registry serves it as ``biqgemm``) write
into a caller-provided ``out``.  Results must be bit-identical to the
allocating call, and the destination is validated: shape, dtype,
writability, no aliasing with the input.
"""

import numpy as np
import pytest

from repro.core.kernel import BiQGemm
from repro.engine import EngineBuildRequest, QuantSpec, build_engine

OUT_BACKENDS = ("biqgemm", "compiled")


@pytest.fixture(scope="module")
def weight():
    return np.random.default_rng(7).standard_normal((24, 32))


def _engine(weight, kind):
    """The batch-invariant numpy kernel, or the native engine."""
    request = EngineBuildRequest(spec=QuantSpec(bits=2, mu=4), weight=weight)
    if kind == "biqgemm":
        engine = BiQGemm.from_bcq(request.get_bcq(), mu=4)
        engine.batch_invariant = True
        return engine
    return build_engine("biqgemm", request)


class TestParity:
    @pytest.mark.parametrize("backend", OUT_BACKENDS)
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.float16]
    )
    def test_out_matches_matmul_bitwise(self, weight, backend, dtype, rng):
        engine = _engine(weight, backend)
        x = rng.standard_normal((32, 5)).astype(dtype)
        expected = engine.matmul(x)
        out = np.empty((24, 5), dtype=expected.dtype)
        got = engine.matmul(x, out=out)
        assert got is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("backend", OUT_BACKENDS)
    def test_non_contiguous_input(self, weight, backend, rng):
        engine = _engine(weight, backend)
        big = rng.standard_normal((64, 6)).astype(np.float32)
        x = big[::2]  # strided (32, 6)
        expected = engine.matmul(np.ascontiguousarray(x))
        out = np.empty((24, 6), dtype=np.float32)
        engine.matmul(x, out=out)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("backend", OUT_BACKENDS)
    def test_vector_input(self, weight, backend, rng):
        engine = _engine(weight, backend)
        v = rng.standard_normal(32)
        expected = engine.matmul(v)
        out = np.empty(24, dtype=expected.dtype)
        got = engine.matmul(v, out=out)
        assert got is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("backend", OUT_BACKENDS)
    def test_strided_out_destination(self, weight, backend, rng):
        engine = _engine(weight, backend)
        x = rng.standard_normal((32, 4)).astype(np.float32)
        expected = engine.matmul(x)
        holder = np.empty((4, 24), dtype=np.float32)
        engine.matmul(x, out=holder.T)
        assert np.array_equal(holder.T, expected)


class TestOutValidation:
    @pytest.mark.parametrize("backend", OUT_BACKENDS)
    def test_rejects_wrong_shape(self, weight, backend, rng):
        engine = _engine(weight, backend)
        x = rng.standard_normal((32, 4))
        with pytest.raises(ValueError, match="shape"):
            engine.matmul(x, out=np.empty((24, 5)))

    @pytest.mark.parametrize("backend", OUT_BACKENDS)
    def test_rejects_wrong_dtype(self, weight, backend, rng):
        engine = _engine(weight, backend)
        x = rng.standard_normal((32, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="dtype"):
            engine.matmul(x, out=np.empty((24, 4), dtype=np.float64))

    @pytest.mark.parametrize("backend", OUT_BACKENDS)
    def test_rejects_aliasing_out(self, weight, backend, rng):
        engine = _engine(weight, backend)
        buf = rng.standard_normal((32, 32))
        with pytest.raises(ValueError, match="alias"):
            engine.matmul(buf, out=buf[:24, :])

    def test_rejects_readonly_out(self, weight, rng):
        engine = _engine(weight, "biqgemm")
        x = rng.standard_normal((32, 2))
        out = np.empty((24, 2))
        out.setflags(write=False)
        with pytest.raises(ValueError, match="writeable"):
            engine.matmul(x, out=out)
