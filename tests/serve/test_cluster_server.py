"""Server in cluster mode: process-pool serving end to end.

Covers the wiring the unit tests can't: predict/generate through the
Server facade, the quarantine -> 503 -> SLO-page chain, cluster series
on /metrics and /healthz, and the drain-then-close shutdown contract
(a live decode stream finishes across ``Server.stop()``).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import QuantConfig, quantize
from repro.nn import build_encoder
from repro.resilience import faults
from repro.serve import ServeConfig, Server
from repro.serve.cluster import ClusterConfig, ModelUnroutableError

FAST = ClusterConfig(
    heartbeat_interval_s=0.1,
    start_timeout_s=120.0,
    respawn_backoff_s=0.05,
    redelivery_wait_s=60.0,
)


@pytest.fixture(scope="module")
def encoder():
    enc = build_encoder("transformer-base", scale=16, layers=1, seed=0)
    return quantize(enc, QuantConfig(bits=2, mu=4)).compile(batch_hint=1)


@pytest.fixture(scope="module")
def decoder():
    from repro.gen.model import DecoderLM
    from repro.nn.transformer import TransformerConfig

    lm = DecoderLM(
        TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2), 50, seed=3
    )
    return quantize(
        lm, QuantConfig(bits=2, mu=4, backend="biqgemm")
    ).compile(batch_hint=1)


def cluster_server(**overrides) -> Server:
    kw = dict(
        workers=2,
        max_batch=8,
        max_latency_ms=1.0,
        cluster=True,
        cluster_config=FAST,
    )
    kw.update(overrides)
    return Server(config=ServeConfig(**kw))


class TestClusterServe:
    def test_predict_generate_and_observability(self, encoder, decoder):
        server = cluster_server()
        server.add_model("enc", encoder)
        server.add_model("lm", decoder)
        with server:
            x = np.random.default_rng(0).standard_normal((4, 32))
            got = server.predict("enc", x, timeout=60.0)
            assert np.array_equal(got, encoder(x[None])[0])

            prompt = np.array([1, 4, 9, 16, 2])
            reference = decoder.generate(prompt, 6, temperature=0.8, seed=3)
            stream = server.generate(
                "lm", prompt, 6, temperature=0.8, seed=3
            )
            assert [int(t) for t in stream] == reference

            health = server.healthz()
            assert health["status"] == "ok"
            assert health["cluster"]["enc"]["alive"] == 2
            assert health["cluster"]["enc"]["quarantined"] is None
            # Workers report the native kernel through their heartbeat;
            # the one that served the predict has loaded it if this
            # host can build it.
            from repro.engine import native

            native_workers = health["cluster"]["enc"]["native_kernel"]
            if native.load() is None:
                assert native_workers == 0
            else:
                assert 1 <= native_workers <= 2

            snapshot = server.metrics()["models"]["enc"]["cluster"]
            assert snapshot["spawns"] >= 2
            assert snapshot["deaths"] == 0

            from repro.obs.metrics import get_registry

            registry = get_registry()
            registry.collect()
            text = registry.to_prometheus()
            assert 'repro_cluster_workers_alive{model="enc"} 2' in text
            assert "repro_cluster_deaths_total" in text

    def test_quarantine_is_503_and_drives_the_slo_page_path(
        self, encoder, monkeypatch
    ):
        from repro.obs.slo import SLOSpec

        # every worker dies on its first job -> crash-loop breaker
        plan_json = faults.plan().kill("worker.job", times=1).to_json()
        monkeypatch.setenv(faults.ENV_VAR, plan_json)
        server = cluster_server(
            cluster_config=ClusterConfig(
                heartbeat_interval_s=0.1,
                start_timeout_s=120.0,
                respawn_backoff_s=0.05,
                crash_loop_threshold=3,
                crash_loop_age_s=30.0,  # hold the quarantine all test
                probe_interval_s=30.0,
                max_redelivery=8,
                redelivery_wait_s=60.0,
            ),
            slos=(
                SLOSpec(
                    name="latency",
                    kind="latency",
                    threshold_s=30.0,
                    objective=0.5,
                ),
            ),
        )
        server.add_model("enc", encoder)
        with server:
            x = np.random.default_rng(1).standard_normal((4, 32))
            with pytest.raises(ModelUnroutableError) as excinfo:
                server.predict("enc", x, timeout=120.0)
            assert excinfo.value.request_id  # satellite: errors carry ids

            # the breaker drives the EXISTING SLO machinery: the model
            # pages, /slo says why, and admission refuses instantly
            engine = server._slo_engine
            assert engine.state("enc") == "page"
            assert "crash-loop" in engine.quarantined("enc")
            assert "enc" in engine.snapshot()["quarantined"]
            started = time.monotonic()
            with pytest.raises(ModelUnroutableError):
                server.predict("enc", x, timeout=120.0)
            assert time.monotonic() - started < 5.0  # shed, not queued

            health = server.healthz()
            assert health["status"] == "degraded"
            assert health["cluster"]["enc"]["quarantined"] is not None

    def test_quarantine_is_503_without_slos_too(self, encoder, monkeypatch):
        plan_json = faults.plan().kill("worker.job", times=1).to_json()
        monkeypatch.setenv(faults.ENV_VAR, plan_json)
        server = cluster_server(
            cluster_config=ClusterConfig(
                heartbeat_interval_s=0.1,
                start_timeout_s=120.0,
                respawn_backoff_s=0.05,
                crash_loop_threshold=3,
                crash_loop_age_s=30.0,
                probe_interval_s=30.0,
                max_redelivery=8,
                redelivery_wait_s=60.0,
            ),
        )
        server.add_model("enc", encoder)
        with server:
            x = np.random.default_rng(2).standard_normal((4, 32))
            with pytest.raises(ModelUnroutableError):
                server.predict("enc", x, timeout=120.0)
            # no SLO engine installed: _submit's direct pool check sheds
            started = time.monotonic()
            with pytest.raises(ModelUnroutableError):
                server.predict("enc", x, timeout=120.0)
            assert time.monotonic() - started < 5.0


class TestShutdownDrain:
    def test_stop_lets_a_live_stream_finish(self, decoder):
        # Regression: stop() used to close the HTTP listener and the
        # schedulers before in-flight decode ticks ran, killing live
        # streams mid-token.  Now it drains first -- a stream opened
        # before stop() yields its full (bit-identical) token list.
        prompt = np.array([1, 4, 9, 16, 2])
        reference = decoder.generate(prompt, 10, temperature=0.8, seed=3)

        server = cluster_server(drain_timeout_s=30.0)
        server.add_model("lm", decoder)
        server.start()
        stream = server.generate("lm", prompt, 10, temperature=0.8, seed=3)
        got, failure = [], []
        consumed = threading.Event()

        def consume():
            try:
                for token in stream:
                    got.append(int(token))
                    if len(got) == 3:
                        consumed.set()
                    time.sleep(0.05)  # slow consumer: stream outlives stop()
            except BaseException as exc:  # noqa: BLE001
                failure.append(repr(exc))
            finally:
                consumed.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        assert consumed.wait(60.0)
        server.stop()  # mid-stream: must drain, not sever
        thread.join(60.0)
        assert failure == []
        assert got == reference

    def test_stop_is_idempotent(self, encoder):
        server = cluster_server()
        server.add_model("enc", encoder)
        server.start()
        server.stop()
        server.stop()
