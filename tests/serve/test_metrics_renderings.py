"""The two renderings of ``/metrics`` are one set of numbers.

Each served model's counts live in its runtime's own instruments; the
JSON body reads them from the runtime and ``?format=prometheus`` reads
the same objects from the registry.  After mixed ``/predict`` and
``/generate`` traffic, on the threaded and the ``--cluster`` tier, every
JSON count equals its Prometheus series.  A hot-swap restarts both at
zero, and two servers in one process keep separate JSON counts for
the same model name.
"""

import http.client
import json
import re
import time

import numpy as np
import pytest

from repro.api import QuantConfig, QuantMLP, quantize
from repro.gen.model import DecoderLM
from repro.nn.linear import Linear
from repro.nn.transformer import TransformerConfig
from repro.obs.metrics import get_registry
from repro.serve import ServeConfig, Server

SERVE_COUNTS = ("requests", "served", "errors", "rejected", "cancelled",
                "batches")
GEN_COUNTS = ("sequences", "completed", "cancelled", "errors",
              "deadline_expired", "rejected", "tokens", "ticks")
CLUSTER_COUNTS = ("spawns", "deaths", "respawns", "kills", "quarantines",
                  "releases", "redelivered")
LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)")


@pytest.fixture(scope="module")
def mlp():
    rng = np.random.default_rng(0)
    model = QuantMLP([
        Linear(rng.standard_normal((10, 6)), rng.standard_normal(10)),
        Linear(rng.standard_normal((4, 10)), rng.standard_normal(4)),
    ])
    return quantize(model, QuantConfig(bits=2, mu=4)).compile(batch_hint=1)


@pytest.fixture(scope="module")
def lm():
    model = DecoderLM(
        TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2), 50, seed=3
    )
    return quantize(
        model, QuantConfig(bits=2, mu=4, backend="biqgemm")
    ).compile(batch_hint=1)


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _predict(port, model, width=6):
    body = json.dumps({"model": model, "input": [0.5] * width}).encode()
    return _request(port, "POST", "/predict", body)[0]


def _generate(port, seed) -> int:
    """One decode stream; returns how many tokens it streamed."""
    body = json.dumps({"model": "lm", "prompt": [1, 2, 3],
                       "max_new_tokens": 4, "seed": seed}).encode()
    status, data = _request(port, "POST", "/generate", body)
    assert status == 200, data
    return json.loads(data.splitlines()[-1])["tokens"]


def _traffic(port):
    """Mixed traffic: ok and failed predicts on both models, and two
    decode streams; returns how many tokens they streamed."""
    assert [_predict(port, "mlp") for _ in range(5)] == [200] * 5
    assert _predict(port, "mlp", width=3) == 400  # a failed request
    assert _predict(port, "lm") == 400  # float input to a token model
    return _generate(port, 0) + _generate(port, 1)


def _prometheus(port) -> dict:
    """``{(family, model): value}`` over every series with a ``model``
    label and no other."""
    status, text = _request(port, "GET", "/metrics?format=prometheus")
    assert status == 200
    series = {}
    for line in text.decode().splitlines():
        match = LINE.match(line)
        if match is None:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(2) or ""))
        if set(labels) == {"model"}:
            series[match.group(1), labels["model"]] = float(match.group(3))
    return series


def _json(port) -> dict:
    status, data = _request(port, "GET", "/metrics")
    assert status == 200
    return json.loads(data)["models"]


def _quiescent(port) -> dict:
    """The JSON once every admitted request has been counted (a worker
    counts a request just after its reply is released)."""
    deadline = time.monotonic() + 30
    while True:
        models = _json(port)
        if all(m["served"] + m["errors"] == m["requests"]
               for m in models.values()) or time.monotonic() > deadline:
            return models
        time.sleep(0.01)


def _assert_renderings_agree(port):
    models = _quiescent(port)
    prom = _prometheus(port)
    assert models == _json(port)  # nothing moved under the scrape
    for name, snap in models.items():
        for count in SERVE_COUNTS:
            assert prom["repro_serve_" + count + "_total", name] == snap[count]
            assert type(snap[count]) is int
        assert prom["repro_serve_latency_seconds_count", name] == (
            snap["latency_ms"]["count"]
        )
        assert prom["repro_serve_queue_depth_count", name] == (
            snap["queue_depth"]["count"]
        )
        assert prom["repro_serve_lut_amortization_ratio", name] == (
            pytest.approx(snap["lut_amortization_ratio"], rel=1e-5)
        )
        assert sum(snap["batch_size_counts"].values()) == snap["batches"]
        gen = snap.get("generation")
        assert (gen is None) == (("repro_gen_tokens_total", name) not in prom)
        if gen is not None:
            for count in GEN_COUNTS:
                series = prom["repro_gen_" + count + "_total", name]
                assert series == gen[count]
                assert type(gen[count]) is int
            for key, family in (("tick_ms", "tick"),
                                ("prefill_ms", "prefill"),
                                ("inter_token_ms", "inter_token")):
                assert prom[f"repro_gen_{family}_seconds_count", name] == (
                    gen[key]["count"]
                )
            assert prom["repro_gen_coalescing_ratio", name] == (
                pytest.approx(gen["coalescing_ratio"], rel=1e-5)
            )
            assert sum(gen["tick_size_counts"].values()) == gen["ticks"]
        cluster = snap.get("cluster")
        assert (cluster is None) == (
            ("repro_cluster_spawns_total", name) not in prom
        )
        if cluster is not None:
            for count in CLUSTER_COUNTS:
                assert prom["repro_cluster_" + count + "_total", name] == (
                    cluster[count]
                )
            assert prom["repro_cluster_workers_alive", name] == sum(
                w["alive"] for w in cluster["workers"]
            )
            assert prom["repro_cluster_shared_bytes", name] == (
                pytest.approx(cluster["shared_bytes"], rel=1e-5)
            )
    return models, prom


@pytest.mark.parametrize("cluster", [False, True], ids=["threaded", "cluster"])
def test_json_and_prometheus_agree_and_restart_at_hot_swap(
    mlp, lm, cluster
):
    server = Server(
        config=ServeConfig(workers=1, max_batch=4, cluster=cluster)
    )
    server.add_model("mlp", mlp)
    server.add_model("lm", lm)
    port = server.serve_http(port=0).server_address[1]
    try:
        tokens = _traffic(port)
        models, _ = _assert_renderings_agree(port)
        assert models["mlp"]["served"] == 5
        assert models["mlp"]["errors"] == 1
        assert models["lm"]["generation"]["tokens"] == tokens == 8
        if cluster:
            assert models["mlp"]["cluster"]["spawns"] == 1

        # A hot-swap: the new versions' series start at zero, and the
        # retired decode scheduler's series leave the scrape.
        server.add_model("mlp", mlp)
        server.add_model("lm", lm)
        models, prom = _assert_renderings_agree(port)
        for name in ("mlp", "lm"):
            assert all(models[name][c] == 0 for c in SERVE_COUNTS)
            assert "generation" not in models[name]
        assert not any(family.startswith("repro_gen_") for family, _ in prom)

        tokens = _generate(port, 2)
        models, _ = _assert_renderings_agree(port)
        assert models["lm"]["generation"]["tokens"] == tokens == 4
        assert models["lm"]["generation"]["sequences"] == 1
    finally:
        server.stop()


def test_two_servers_keep_separate_counts_for_one_model_name(mlp):
    first = Server(config=ServeConfig(workers=1))
    second = Server(config=ServeConfig(workers=1))
    first.add_model("m", mlp)
    second.add_model("m", mlp)
    x = np.full(6, 0.5)
    with first, second:
        for _ in range(3):
            first.predict("m", x)
        for _ in range(5):
            second.predict("m", x)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and (
            first.metrics()["models"]["m"]["served"] < 3
            or second.metrics()["models"]["m"]["served"] < 5
        ):
            time.sleep(0.01)
        counts = [
            server.metrics()["models"]["m"] for server in (first, second)
        ]
        # The scrape holds one series per name: the later server's,
        # then the first's again once the later one stops.
        def series():
            return get_registry().counter(
                "repro_serve_requests_total", model="m"
            )

        assert series() is second._runtimes["m"].batcher.metrics.requests
        second.stop()
        assert series() is first._runtimes["m"].batcher.metrics.requests
        assert series().value == 3
    assert [c["requests"] for c in counts] == [3, 5]
    assert [c["served"] for c in counts] == [3, 5]
