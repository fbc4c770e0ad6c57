"""Server in cluster mode: process-pool serving end to end.

Covers the wiring the unit tests can't: predict/generate through the
Server facade, quarantine as 503 on both, with and without SLOs,
cluster series on /metrics and /healthz, and the drain-then-close
shutdown contract (a live decode stream finishes across
``Server.stop()``).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

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

    def test_quarantine_is_503_with_slos(self, decoder, monkeypatch):
        from repro.obs.slo import SLOSpec

        server = crash_looping_server(
            decoder,
            monkeypatch,
            slos=(
                SLOSpec(
                    name="availability",
                    kind="availability",
                    objective=0.9,
                ),
            ),
        )
        with server:
            # The request that trips the breaker fails, and that one
            # failure pages the availability SLO ...
            with pytest.raises(ModelUnroutableError) as excinfo:
                server.predict("lm", np.array([1, 4, 9, 16]), timeout=120.0)
            assert excinfo.value.request_id  # errors carry ids
            server._slo_engine.evaluate()
            assert server.slo_mode == "page"
            # ... yet quarantine outranks paging: 503, not 429.
            assert_quarantine_refuses(server)
            assert server.slo()["specs"][0]["state"] == "page"

    def test_quarantine_is_503_without_slos_too(self, decoder, monkeypatch):
        server = crash_looping_server(decoder, monkeypatch)
        with server:
            # The first stream's prefill crash-loops the workers until
            # the breaker trips.
            with pytest.raises(ModelUnroutableError) as excinfo:
                server.generate("lm", np.array([1, 4, 9, 16]), 4)
            assert "quarantined" in str(excinfo.value)
            assert_quarantine_refuses(server)
            assert server.slo()["enabled"] is False


def crash_looping_server(decoder, monkeypatch, **overrides) -> Server:
    """A cluster server for the decoder whose workers die on their
    first job, with the breaker held open for the whole test."""
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
        **overrides,
    )
    server.add_model("lm", decoder)
    return server


def assert_quarantine_refuses(server: Server) -> None:
    """Once the breaker has tripped, ``/predict`` and ``/generate``
    are 503 at once, in process and over HTTP; ``/slo`` lists the
    model and ``/healthz`` is degraded."""
    prompt = np.array([1, 4, 9, 16])
    started = time.monotonic()
    with pytest.raises(ModelUnroutableError):
        server.predict("lm", prompt, timeout=120.0)
    with pytest.raises(ModelUnroutableError):
        server.generate("lm", prompt, 4)
    assert time.monotonic() - started < 5.0  # shed, not queued

    httpd = server.serve_http(port=0)
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    for path, body in (
        ("/generate", {"model": "lm", "prompt": [1, 4, 9, 16],
                       "max_new_tokens": 4}),
        ("/predict", {"model": "lm", "input": [1, 4, 9, 16]}),
    ):
        request = urllib.request.Request(
            base + path, data=json.dumps(body).encode("utf-8")
        )
        with pytest.raises(urllib.error.HTTPError) as http_err:
            urllib.request.urlopen(request, timeout=30)
        assert http_err.value.code == 503, path
        assert "quarantined" in json.loads(http_err.value.read())["error"]
    with urllib.request.urlopen(base + "/slo", timeout=30) as resp:
        slo_body = json.loads(resp.read())
    assert "crash-loop" in slo_body["quarantined"]["lm"]

    health = server.healthz()
    assert health["status"] == "degraded"
    assert health["cluster"]["lm"]["quarantined"] is not None


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
