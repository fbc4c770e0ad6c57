"""Cross-thread trace propagation through the serving stack.

The span tree under test: ``serve.admit`` (caller thread) ->
``serve.queue`` (ended at batch formation) -> ``serve.batch`` (worker
thread; adopts a lone request's trace, links a coalesced batch's) ->
``worker.execute`` -> ``model.forward`` -> per-layer ``engine.matmul``.
Also: the disabled path must record nothing at all.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.obs as obs
from repro.obs.trace import NOOP_SPAN, get_tracer, span
from repro.api import QuantConfig, QuantMLP, quantize
from repro.nn.linear import Linear
from repro.serve import Batcher, QueueFullError, ServeConfig, Server


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    get_tracer().clear()
    yield
    obs.disable()
    get_tracer().clear()


def _compiled(seed=0, dims=(6, 10, 4), bits=2):
    rng = np.random.default_rng(seed)
    mlp = QuantMLP(
        [
            Linear(rng.standard_normal((m, n)), rng.standard_normal(m))
            for n, m in zip(dims[:-1], dims[1:])
        ]
    )
    return quantize(mlp, QuantConfig(bits=bits, mu=4)).compile()


def _spans_by_name():
    by_name = {}
    for s in get_tracer().spans():
        by_name.setdefault(s.name, []).append(s)
    return by_name


class TestBatcherSpans:
    def test_queue_spans_end_at_batch_formation(self):
        obs.enable(tracing=True, drift=False, clear=True)
        batcher = Batcher(max_batch=4, max_latency_ms=0.0)
        requests = [batcher.enqueue(np.ones(3)) for _ in range(3)]
        assert all(r.trace is not None for r in requests)
        batch = batcher.next_batch(timeout=0.5)
        assert len(batch) == 3
        queue_spans = _spans_by_name()["serve.queue"]
        assert len(queue_spans) == 3
        for s in queue_spans:
            assert s.attrs == {"outcome": "batched", "batch": 3}
        assert {s.context for s in queue_spans} == {
            r.trace for r in requests
        }

    def test_rejected_request_closes_its_span(self):
        obs.enable(tracing=True, drift=False, clear=True)
        batcher = Batcher(max_batch=2, max_queue=1, max_latency_ms=0.0)
        batcher.enqueue(np.ones(3))
        with pytest.raises(QueueFullError):
            batcher.enqueue(np.ones(3))
        rejected = [
            s
            for s in _spans_by_name()["serve.queue"]
            if s.attrs.get("outcome") == "rejected"
        ]
        assert len(rejected) == 1
        assert rejected[0].attrs["error"] == "QueueFullError"

    def test_close_fails_queued_spans(self):
        obs.enable(tracing=True, drift=False, clear=True)
        batcher = Batcher(max_batch=4, max_latency_ms=0.0)
        batcher.enqueue(np.ones(3))
        batcher.close()
        (s,) = _spans_by_name()["serve.queue"]
        assert s.attrs["outcome"] == "closed"
        assert s.attrs["error"] == "BatcherClosed"

    def test_disabled_batcher_sets_no_trace(self):
        batcher = Batcher(max_batch=4, max_latency_ms=0.0)
        request = batcher.enqueue(np.ones(3))
        assert request.trace is None
        batcher.next_batch(timeout=0.5)
        assert get_tracer().recorded == 0


class TestServerPropagation:
    def test_single_request_is_one_connected_trace(self):
        obs.enable(tracing=True, drift=False, clear=True)
        rid = "cafe" * 4
        with Server(
            config=ServeConfig(workers=1, max_batch=4, max_latency_ms=1.0)
        ) as server:
            server.add_model("m", _compiled())
            x = np.ones(6, dtype=np.float32)
            server.predict("m", x, timeout=10.0, request_id=rid)
        spans = get_tracer().spans()
        tree = [s for s in spans if s.trace_id == rid]
        names = {s.name for s in tree}
        for expected in (
            "serve.admit",
            "serve.queue",
            "serve.batch",
            "worker.execute",
            "model.forward",
            "engine.matmul",
        ):
            assert expected in names, f"missing {expected} under {rid}"
        by_id = {s.span_id: s for s in tree}
        # Every non-root span must parent onto another span of the same
        # trace -- one connected tree under the request id.
        roots = [s for s in tree if s.parent_id is None]
        assert [s.name for s in roots] == ["serve.admit"]
        for s in tree:
            if s.parent_id is not None:
                assert s.parent_id in by_id, s.name
        # A lone request's batch span adopts its queue span as parent.
        (batch_span,) = [s for s in tree if s.name == "serve.batch"]
        assert by_id[batch_span.parent_id].name == "serve.queue"

    def test_coalesced_batch_links_every_request(self):
        obs.enable(tracing=True, drift=False, clear=True)
        with Server(
            config=ServeConfig(workers=2, max_batch=8, max_latency_ms=2.0)
        ) as server:
            server.add_model("m", _compiled())
            errors = []

            def hit():
                x = np.ones(6, dtype=np.float32)
                try:
                    server.predict("m", x, timeout=10.0)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=hit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
        by_name = _spans_by_name()
        queues = by_name["serve.queue"]
        batches = by_name["serve.batch"]
        assert len(queues) == 8
        # Each queue span must be reachable from some batch span,
        # either as its adopted parent (batch of one) or via links.
        reachable = set()
        for b in batches:
            if b.parent_id is not None:
                reachable.add(b.parent_id)
            reachable.update(ctx.span_id for ctx in b.links)
        for q in queues:
            assert q.span_id in reachable
        # worker.execute always parents onto its batch span.
        batch_ids = {b.span_id for b in batches}
        for w in by_name["worker.execute"]:
            assert w.parent_id in batch_ids

    def test_retry_after_hot_swap_stays_under_one_admit(self, monkeypatch):
        obs.enable(tracing=True, drift=False, clear=True)
        rid = "feed" * 4
        with Server(
            config=ServeConfig(workers=1, max_batch=4, max_latency_ms=1.0)
        ) as server:
            server.add_model("m", _compiled(seed=1))
            stale = server._runtime("m")
            server.add_model("m", _compiled(seed=2))  # hot-swap
            assert server._runtime("m") is not stale

            # First resolution hands back the drained (closed) runtime,
            # as when a swap lands between lookup and submit; the retry
            # re-resolves and must keep the same serve.admit parent.
            real = server._runtime
            state = {"stale": True}

            def flaky(name):
                if state["stale"]:
                    state["stale"] = False
                    return stale
                return real(name)

            monkeypatch.setattr(server, "_runtime", flaky)
            x = np.ones(6, dtype=np.float32)
            server.predict("m", x, timeout=10.0, request_id=rid)
        tree = [s for s in get_tracer().spans() if s.trace_id == rid]
        by_id = {s.span_id: s for s in tree}
        queues = [s for s in tree if s.name == "serve.queue"]
        assert len(queues) == 2
        outcomes = sorted(q.attrs["outcome"] for q in queues)
        assert outcomes == ["batched", "rejected"]
        (admit,) = [s for s in tree if s.name == "serve.admit"]
        for q in queues:
            assert q.parent_id == admit.span_id
        (batch_span,) = [s for s in tree if s.name == "serve.batch"]
        assert by_id[batch_span.parent_id].attrs["outcome"] == "batched"

    def test_disabled_serving_records_zero_spans(self):
        assert span("anything") is NOOP_SPAN
        with Server(
            config=ServeConfig(workers=1, max_batch=4, max_latency_ms=1.0)
        ) as server:
            server.add_model("m", _compiled())
            x = np.ones(6, dtype=np.float32)
            for _ in range(4):
                server.predict("m", x, timeout=10.0)
        assert get_tracer().recorded == 0
        assert get_tracer().spans() == []


class TestFailedRequestAttribution:
    def test_exception_carries_request_id_and_logs_one_line(self, caplog):
        with Server(
            config=ServeConfig(workers=1, max_batch=4, max_latency_ms=1.0)
        ) as server:
            server.add_model("m", _compiled())
            with caplog.at_level("WARNING", logger="repro.serve"):
                with pytest.raises(KeyError) as excinfo:
                    server.predict(
                        "missing", np.ones(6), request_id="ab" * 8
                    )
        assert excinfo.value.request_id == "ab" * 8
        (record,) = caplog.records
        line = json.loads(record.getMessage())
        assert line["event"] == "request_failed"
        assert line["request_id"] == "ab" * 8
        assert line["model"] == "missing"
        assert line["error"] == "ModelNotFound"


class TestHttpObservability:
    @pytest.fixture()
    def http_server(self):
        server = Server(
            config=ServeConfig(workers=1, max_batch=4, max_latency_ms=1.0)
        )
        server.add_model("m", _compiled())
        server.start()
        httpd = server.serve_http(port=0)
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        yield server, base
        server.stop()

    def test_metrics_prometheus_format(self, http_server):
        _, base = http_server
        with urllib.request.urlopen(
            base + "/metrics?format=prometheus", timeout=10
        ) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        # Exemplar-enabled latency series render as classic histograms
        # (cumulative buckets); exemplar-less ones stay summaries.
        assert "# TYPE repro_serve_latency_seconds histogram" in text
        assert 'repro_serve_latency_seconds_bucket{model="m",le="+Inf"}' in text
        assert "# TYPE repro_serve_queue_depth summary" in text
        assert 'repro_serve_requests_total{model="m"}' in text
        assert "repro_engine_builds_total" in text

    def test_metrics_json_is_the_default(self, http_server):
        _, base = http_server
        with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
            body = json.loads(r.read())
        assert "models" in body and "store" in body
        assert body["obs"] == {
            "tracing": False,
            "drift": False,
            "slo": False,
            "profiling": False,
            "slo_mode": "ok",
        }

    def test_trace_endpoint_serves_trace_events(self, http_server):
        obs.enable(tracing=True, drift=False, clear=True)
        _, base = http_server
        data = json.dumps(
            {"model": "m", "input": [1.0] * 6}
        ).encode()
        request = urllib.request.Request(
            base + "/predict",
            data=data,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            body = json.loads(response.read())
        assert body["request_id"]
        with urllib.request.urlopen(base + "/trace", timeout=10) as r:
            events = json.loads(r.read())
        names = {
            e["name"] for e in events["traceEvents"] if e["ph"] == "X"
        }
        assert "serve.admit" in names
        assert any(
            e["args"].get("trace_id") == body["request_id"]
            for e in events["traceEvents"]
            if e["ph"] == "X"
        )

    def test_error_response_carries_request_id(self, http_server):
        _, base = http_server
        data = json.dumps({"model": "nope", "input": [1.0] * 6}).encode()
        request = urllib.request.Request(
            base + "/predict",
            data=data,
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
            raise AssertionError("expected HTTP 404")
        except urllib.error.HTTPError as err:
            assert err.code == 404
            body = json.loads(err.read())
        assert body["request_id"]
        assert "no model named" in body["error"]
