"""Unit tests for the compiled engine (repro.engine.compiled).

The engine's whole contract is "bit-identical to the batch-invariant
reference, just faster": every path -- resident native traces at
decode and wider batches, the fallback beyond the specialization
envelope (float16 included), the kwargs
opt-out, the ``out=`` spellings, restore from serialized state -- must
reproduce the unfused reference bits exactly, for every fusible
activation and float dtype.
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
from repro.engine.compiled import (
    MAX_TRACES,
    TRACE_MAX_BATCH,
    CompiledKernelEngine,
)
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
    # 1 and 2 run the kernel's constant-width paths, 5 and 33 its
    # generic-width path; float16 always takes the fallback.
    @pytest.mark.parametrize("batch", [1, 2, 5, 33])
    def test_trace_matches_reference(
        self, weight, bias, reference, activation, dtype, batch, rng
    ):
        engine = _compiled(weight, bias=bias, activation=activation)
        x = rng.standard_normal((N, batch)).astype(dtype)
        want = _expected(reference, x, bias=bias, activation=activation)
        for _ in range(2):  # second call runs the now-resident trace
            got = engine.matmul(x)
            assert got.dtype == want.dtype, (activation, dtype)
            assert np.array_equal(got, want), (activation, dtype)
        assert engine.trace_count == 1

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

    def test_batch_above_envelope_falls_back_identically(
        self, weight, bias, reference, rng
    ):
        engine = _compiled(weight, bias=bias, activation="relu")
        x = rng.standard_normal((N, TRACE_MAX_BATCH + 1))
        want = _expected(reference, x, bias=bias, activation="relu")
        assert np.array_equal(engine.matmul(x), want)
        assert engine.trace_count == 0

    def test_kwargs_opt_out_is_identical(self, weight, bias, reference, rng):
        # Explicit kernel knobs bypass the trace but keep the epilogue.
        engine = _compiled(weight, bias=bias, activation="sigmoid")
        x = rng.standard_normal((N, 2))
        want = _expected(reference, x, bias=bias, activation="sigmoid")
        got = engine.matmul(x, query_impl="loop")
        assert np.array_equal(got, want)
        assert engine.trace_count == 0

    def test_concurrent_calls_stay_identical(self, weight, bias, reference):
        # Contention must route losers to the (bit-identical) fallback,
        # never corrupt the resident buffers.
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


class TestSpecialization:
    def test_envelope_rejections(self, weight):
        engine = _compiled(weight)
        assert not engine.specialize(0, np.float64)
        assert not engine.specialize(TRACE_MAX_BATCH + 1, np.float64)
        assert engine.trace_count == 0

    def test_trace_budget_caps_residency(self, weight, bias, reference, rng):
        engine = _compiled(weight, bias=bias, activation="relu")
        for b in range(1, MAX_TRACES + 1):
            assert engine.specialize(b, np.float64)
        assert engine.trace_count == MAX_TRACES
        assert not engine.specialize(MAX_TRACES + 1, np.float64)
        # Beyond-budget batches still serve, bit-identically.
        x = rng.standard_normal((N, MAX_TRACES + 1))
        want = _expected(reference, x, bias=bias, activation="relu")
        assert np.array_equal(engine.matmul(x), want)
        assert engine.trace_count == MAX_TRACES

    def test_specialization_prebuild_round_trip(self, weight, bias, rng):
        engine = _compiled(weight, bias=bias, activation="relu")
        for b in (1, 2, 4):
            engine.matmul(rng.standard_normal((N, b)))
        plan = engine.specialization()
        assert plan["batches"] == [1, 2, 4]
        rebuilt = _compiled(weight, bias=bias, activation="relu")
        rebuilt.prebuild(plan)
        assert rebuilt.trace_count == engine.trace_count
        assert rebuilt.specialization() == plan


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
