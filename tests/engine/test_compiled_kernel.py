"""Unit tests for the compiled engine (repro.engine.compiled).

The engine's whole contract is "bit-identical to the batch-invariant
reference, just faster": every path -- the native kernel at decode and
wider batches, the fallback for dtypes the kernel does not compute in
(float16), the kwargs opt-out, the ``out=`` spellings, restore from
serialized state -- must reproduce the unfused reference bits exactly,
for every fusible activation and float dtype.
"""

import threading

import numpy as np
import pytest

from repro.engine import (
    EngineBuildRequest,
    QuantSpec,
    build_engine,
    engine_entry,
)
from repro.engine.compiled import CompiledKernelEngine
from repro.nn.functional import FUSIBLE_ACTIVATIONS, activation_fn

M, N = 40, 48
BITS, MU = 2, 4


@pytest.fixture(scope="module")
def weight():
    return np.random.default_rng(11).standard_normal((M, N))


@pytest.fixture(scope="module")
def bias():
    return np.random.default_rng(12).standard_normal(M)


@pytest.fixture(scope="module")
def reference(weight):
    """The unfused batch-invariant reference engine."""
    return build_engine(
        "biqgemm",
        EngineBuildRequest(spec=QuantSpec(bits=BITS, mu=MU), weight=weight),
    )


def _compiled(weight, bias=None, activation=None):
    spec = QuantSpec(bits=BITS, mu=MU, backend="compiled", fuse=activation)
    return build_engine(
        "compiled", EngineBuildRequest(spec=spec, weight=weight, bias=bias)
    )


def _expected(reference, x, bias=None, activation=None):
    """The unfused chain: invariant matmul, bias fold, activation."""
    pre = reference.matmul(x)
    cols = pre if pre.ndim == 2 else pre[:, None]
    if bias is not None:
        cols = cols + bias.astype(cols.dtype)[:, None]
    if activation is not None:
        cols = activation_fn(activation)(cols)
    return cols if np.asarray(x).ndim == 2 else cols[:, 0]


class TestBitIdentity:
    @pytest.mark.parametrize("activation", [None, *sorted(FUSIBLE_ACTIVATIONS)])
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.float16]
    )
    # 1 and 2 run the kernel's constant batch widths; 5 and 33 cross a
    # column-chunk edge (4 double or 32 float columns) into a remainder
    # chunk; float16 always takes the fallback.
    @pytest.mark.parametrize("batch", [1, 2, 5, 33])
    def test_trace_matches_reference(
        self, weight, bias, reference, activation, dtype, batch, rng
    ):
        engine = _compiled(weight, bias=bias, activation=activation)
        x = rng.standard_normal((N, batch)).astype(dtype)
        want = _expected(reference, x, bias=bias, activation=activation)
        for _ in range(2):  # the second call reuses the built plan
            got = engine.matmul(x)
            assert got.dtype == want.dtype, (activation, dtype)
            assert np.array_equal(got, want), (activation, dtype)
        assert list(engine._plans) == [np.dtype(dtype)]

    def test_vector_input(self, weight, bias, reference, rng):
        engine = _compiled(weight, bias=bias, activation="relu")
        v = rng.standard_normal(N).astype(np.float32)
        want = _expected(reference, v, bias=bias, activation="relu")
        got = engine.matmul(v)
        assert got.shape == (M,)
        assert np.array_equal(got, want)

    def test_strided_input(self, weight, bias, reference, rng):
        engine = _compiled(weight, bias=bias, activation="gelu")
        big = rng.standard_normal((2 * N, 3)).astype(np.float32)
        x = big[::2]
        want = _expected(
            reference,
            np.ascontiguousarray(x),
            bias=bias,
            activation="gelu",
        )
        assert np.array_equal(engine.matmul(x), want)

    def test_kwargs_opt_out_is_identical(self, weight, bias, reference, rng):
        # Explicit kernel knobs bypass the native kernel but keep the
        # epilogue.
        engine = _compiled(weight, bias=bias, activation="sigmoid")
        x = rng.standard_normal((N, 2))
        want = _expected(reference, x, bias=bias, activation="sigmoid")
        got = engine.matmul(x, query_impl="loop")
        assert np.array_equal(got, want)
        assert not engine._plans

    def test_concurrent_calls_stay_identical(self, weight, bias, reference):
        # Concurrent calls share one native plan; each borrows its own
        # table scratch and allocates its own output.
        engine = _compiled(weight, bias=bias, activation="relu")
        rng = np.random.default_rng(5)
        xs = [rng.standard_normal((N, 2)) for _ in range(8)]
        wants = [
            _expected(reference, x, bias=bias, activation="relu") for x in xs
        ]
        failures = []

        def worker(i):
            for _ in range(20):
                if not np.array_equal(engine.matmul(xs[i]), wants[i]):
                    failures.append(i)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures


class TestOutPaths:
    def test_out_receives_activated_result_dtype(
        self, weight, bias, reference, rng
    ):
        engine = _compiled(weight, bias=bias, activation="tanh")
        x = rng.standard_normal((N, 2)).astype(np.float32)
        want = _expected(reference, x, bias=bias, activation="tanh")
        out = np.empty((M, 2), dtype=engine.result_dtype(np.float32))
        got = engine.matmul(x, out=out)
        assert got is out
        assert np.array_equal(out, want)

    def test_result_dtype_tracks_activation_promotion(self, weight, bias):
        from repro.nn.functional import activation_result_dtype

        engine = _compiled(weight, bias=bias, activation="tanh")
        assert engine.result_dtype(np.float16) == activation_result_dtype(
            "tanh", np.dtype(np.float16)
        )
        bare = _compiled(weight)
        assert bare.result_dtype(np.float16) == np.dtype(np.float16)


class TestSerialization:
    @pytest.mark.parametrize("activation", [None, "relu", "tanh"])
    def test_export_restore_round_trip(
        self, weight, bias, reference, activation, rng
    ):
        entry = engine_entry("compiled")
        engine = _compiled(weight, bias=bias, activation=activation)
        state = entry.export(engine)
        # The artifact layer persists plain arrays; mimic that.
        state = {k: np.asarray(v) for k, v in state.items()}
        restored = entry.restore(state)
        assert isinstance(restored, CompiledKernelEngine)
        assert restored.activation == activation
        x = rng.standard_normal((N, 3)).astype(np.float32)
        want = _expected(reference, x, bias=bias, activation=activation)
        assert np.array_equal(restored.matmul(x), want)

    def test_export_omits_float_weights(self, weight, bias):
        entry = engine_entry("compiled")
        state = entry.export(_compiled(weight, bias=bias, activation="relu"))
        assert "keys" in state and "alphas" in state
        # Only quantized state plus the 1-D bias ships -- never a dense
        # (m, n) float weight reconstruction.
        for name, value in state.items():
            assert np.asarray(value).size < M * N, name


class TestMetadata:
    def test_fused_epilogue_flag(self, weight, bias):
        assert not _compiled(weight).fused_epilogue
        assert _compiled(weight, bias=bias).fused_epilogue
        assert _compiled(weight, activation="relu").fused_epilogue

    def test_op_counts_include_epilogue(self, weight, bias):
        engine = _compiled(weight, bias=bias, activation="relu")
        counts = engine.op_counts(4)
        assert counts["epilogue_ops"] == 2 * M * 4
        assert _compiled(weight).op_counts(4)["epilogue_ops"] == 0

    def test_rejects_wrong_bias_shape(self, weight):
        from repro.core.kernel import BiQGemm
        from repro.quant.bcq import bcq_quantize

        inner = BiQGemm.from_bcq(bcq_quantize(weight, BITS), mu=MU)
        with pytest.raises(ValueError, match="bias"):
            CompiledKernelEngine(inner, bias=np.zeros(M + 1))
