"""Server + WorkerPool tests: concurrency, parity, lifecycle,
telemetry.

The load-bearing claim is the satellite's: outputs served through the
dynamic batcher are **bit-identical** to unbatched execution, across
dtypes and mixed bit-width configs -- every engine computes output
columns independently, so coalescing is a pure reshape.
"""

import threading

import numpy as np
import pytest

from repro.api import QuantConfig, QuantMLP, quantize
from repro.nn.linear import Linear
from repro.nn.model_zoo import build_encoder
from repro.serve import (
    Batcher,
    ModelNotFound,
    QueueFullError,
    ServeConfig,
    Server,
    WorkerPool,
)


def _mlp(seed=0, dims=(6, 10, 4)):
    rng = np.random.default_rng(seed)
    layers = [
        Linear(rng.standard_normal((m, n)), rng.standard_normal(m))
        for n, m in zip(dims[:-1], dims[1:])
    ]
    return QuantMLP(layers)


def _serve_many(server, name, inputs, timeout=30.0):
    """Fire all *inputs* concurrently; return outputs in order."""
    results = [None] * len(inputs)
    errors = []

    def client(i):
        try:
            results[i] = server.predict(name, inputs[i], timeout=timeout)
        except BaseException as exc:  # noqa: BLE001 -- surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(len(inputs))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


class TestBatchedParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.float64])
    def test_mlp_outputs_bit_identical_across_dtypes(self, dtype):
        config = QuantConfig(bits=3, mu=4, backend="biqgemm")
        compiled = quantize(_mlp(), config).compile(batch_hint=1)
        rng = np.random.default_rng(1)
        inputs = [
            rng.standard_normal(6).astype(dtype) for _ in range(12)
        ]
        expected = [compiled(x[None])[0] for x in inputs]
        server = compiled.serve(workers=2, max_batch=8, max_latency_ms=20.0)
        try:
            got = _serve_many(server, "default", inputs)
        finally:
            server.stop()
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            assert np.array_equal(g, e)  # bit-identical, not just close

    def test_encoder_mixed_bitwidth_bit_identical(self):
        config = QuantConfig(
            bits=3, mu=4, overrides={"ffn.*": {"bits": 2}}
        )
        encoder = build_encoder(
            "transformer-base", scale=16, layers=2, seed=0
        )
        compiled = quantize(encoder, config).compile(batch_hint=1)
        rng = np.random.default_rng(2)
        inputs = [rng.standard_normal((5, 32)) for _ in range(8)]
        expected = [compiled(x[None])[0] for x in inputs]
        server = compiled.serve(workers=2, max_batch=8, max_latency_ms=20.0)
        try:
            got = _serve_many(server, "default", inputs)
        finally:
            server.stop()
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)

    def test_vector_requests_round_trip_via_auto_promotion(self):
        """1-D per-request inputs work end to end (satellite: no
        caller-side reshapes)."""
        compiled = quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
        x = np.random.default_rng(3).standard_normal(6)
        expected = compiled(x)  # CompiledModel promotes and squeezes
        assert expected.shape == (4,)
        server = compiled.serve(workers=1, max_batch=4, max_latency_ms=5.0)
        try:
            got = server.predict("default", x)
        finally:
            server.stop()
        assert np.array_equal(got, expected)


class TestServerLifecycle:
    def test_context_manager_and_predict(self):
        compiled = quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
        server = Server(config=ServeConfig(workers=1, max_batch=4))
        server.add_model("mlp", compiled)
        x = np.random.default_rng(0).standard_normal(6)
        with server:
            out = server.predict("mlp", x)
            assert out.shape == (4,)
            assert server.healthz()["status"] == "ok"
        assert server.healthz()["status"] == "unavailable"

    def test_healthz_reports_native_kernel(self):
        from repro.engine import native

        server = Server()
        assert server.healthz()["native_kernel"] == native.status()

    def test_predict_before_start_raises(self):
        server = Server()
        with pytest.raises(RuntimeError, match="not started"):
            server.predict("m", np.ones(3))

    def test_unknown_model_raises(self):
        compiled = quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
        server = compiled.serve(workers=1)
        try:
            with pytest.raises(ModelNotFound):
                server.predict("ghost", np.ones(6))
        finally:
            server.stop()

    def test_hot_swap_while_running(self):
        first = quantize(_mlp(seed=1), QuantConfig(bits=2, mu=4)).compile()
        second = quantize(_mlp(seed=2), QuantConfig(bits=2, mu=4)).compile()
        x = np.random.default_rng(4).standard_normal(6)
        server = Server(config=ServeConfig(workers=1, max_batch=4))
        server.add_model("m", first)
        with server:
            before = server.predict("m", x)
            server.add_model("m", second)  # hot-swap
            after = server.predict("m", x)
            assert np.array_equal(after, second(x))
            assert not np.array_equal(before, after)
            (meta,) = server.models()
            assert meta["version"] == 2

    def test_budget_eviction_tears_down_the_runtime(self):
        first = quantize(_mlp(seed=1), QuantConfig(bits=2, mu=4)).compile()
        second = quantize(_mlp(seed=2), QuantConfig(bits=2, mu=4)).compile()
        budget = first.weight_nbytes  # room for exactly one model
        server = Server(
            config=ServeConfig(workers=1, max_batch=4, budget_bytes=budget)
        )
        server.add_model("a", first)
        with server:
            assert server.predict("a", np.ones(6)).shape == (4,)
            server.add_model("b", second)  # evicts "a" (LRU)
            assert [m["name"] for m in server.models()] == ["b"]
            # The evicted model's workers are gone, not serving forever.
            assert server.healthz()["workers_alive"] == {"b": True}
            with pytest.raises(ModelNotFound):
                server.predict("a", np.ones(6))
            assert server.predict("b", np.ones(6)).shape == (4,)

    def test_predict_timeout_zero_times_out_immediately(self):
        compiled = quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
        compiled.warmup()
        # The batcher will hold a lone request for the 1 s coalescing
        # deadline; a zero timeout must not silently become the 30 s
        # default (it would block here instead of raising).
        server = compiled.serve(
            workers=1, max_batch=8, max_latency_ms=1000.0
        )
        try:
            with pytest.raises(TimeoutError):
                server.predict("default", np.ones(6), timeout=0)
        finally:
            server.stop()

    def test_worker_error_propagates_to_caller(self):
        compiled = quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
        server = compiled.serve(workers=1, max_batch=4, max_latency_ms=2.0)
        try:
            with pytest.raises(ValueError):
                # wrong feature width -> engine-side shape error
                server.predict("default", np.ones(5))
            # server survives and keeps serving
            out = server.predict(
                "default", np.random.default_rng(0).standard_normal(6)
            )
            assert out.shape == (4,)
            assert server.metrics()["models"]["default"]["errors"] == 1
        finally:
            server.stop()


class TestBackpressure:
    def test_queue_full_surfaces_to_caller(self):
        compiled = quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
        compiled.warmup()
        batcher = Batcher(max_batch=4, max_latency_ms=1.0, max_queue=2)
        # No workers draining: the queue fills, the third enqueue must
        # be refused (admission control), and telemetry counts it.
        batcher.enqueue(np.ones(6))
        batcher.enqueue(np.ones(6))
        with pytest.raises(QueueFullError):
            batcher.enqueue(np.ones(6))
        assert batcher.telemetry.rejected == 1


class TestTelemetry:
    def test_metrics_shape_and_amortization(self):
        compiled = quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
        rng = np.random.default_rng(5)
        inputs = [rng.standard_normal(6) for _ in range(16)]
        server = compiled.serve(workers=1, max_batch=16, max_latency_ms=50.0)
        try:
            _serve_many(server, "default", inputs)
            snap = server.metrics()["models"]["default"]
        finally:
            server.stop()
        assert snap["requests"] == 16
        assert snap["served"] == 16
        assert snap["errors"] == 0
        assert snap["batches"] >= 1
        assert snap["lut_amortization_ratio"] == pytest.approx(
            16 / snap["batches"]
        )
        assert sum(
            size * count
            for size, count in snap["batch_size_counts"].items()
        ) == 16
        assert snap["latency_ms"]["p95"] >= snap["latency_ms"]["p50"] >= 0
        assert server.metrics()["store"]["models"] == 1


class TestWorkerPool:
    def test_start_twice_raises(self):
        compiled = quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
        pool = WorkerPool(compiled, Batcher(), workers=1)
        pool.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                pool.start()
        finally:
            pool.stop()
        assert not pool.running

    def test_replicas_share_compiled_engines(self):
        compiled = quantize(
            _mlp(), QuantConfig(bits=2, mu=4, backend="biqgemm")
        ).compile(batch_hint=1)
        replicas = compiled.replicate(3)
        for replica in replicas:
            for (_, a), (_, b) in zip(
                compiled.named_layers(), replica.named_layers()
            ):
                assert a is not b
                assert a.engine_for(1) is b.engine_for(1)  # shared compile
