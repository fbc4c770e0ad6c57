"""HTTP frontend tests: the four endpoints, error mapping, concurrency,
and fuzzed bodies (always a 4xx or a 200, never a 500 or a dropped
connection)."""

import http.client
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import QuantConfig, QuantMLP, quantize
from repro.engine import native
from repro.nn.linear import Linear
from repro.serve import ServeConfig, Server
from repro.serve.sequences import MAX_SEQUENCE_TOKENS


def _mlp(seed=0, dims=(6, 10, 4)):
    rng = np.random.default_rng(seed)
    return QuantMLP(
        [
            Linear(rng.standard_normal((m, n)), rng.standard_normal(m))
            for n, m in zip(dims[:-1], dims[1:])
        ]
    )


@pytest.fixture()
def http_server():
    compiled = quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
    server = Server(
        config=ServeConfig(workers=2, max_batch=8, max_latency_ms=5.0)
    )
    server.add_model("mlp", compiled)
    httpd = server.serve_http(port=0)  # ephemeral port
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield server, base, compiled
    server.stop()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(base, path, payload, timeout=30):
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_predict_matches_local_execution(self, http_server):
        server, base, compiled = http_server
        x = np.random.default_rng(1).standard_normal(6).astype(np.float32)
        status, body = _post(
            base, "/predict", {"model": "mlp", "input": x.tolist()}
        )
        assert status == 200
        assert body["model"] == "mlp"
        assert body["shape"] == [4]
        expected = compiled(x)
        assert np.allclose(body["output"], expected, rtol=0, atol=0)

    def test_predict_dtype_field(self, http_server):
        _, base, compiled = http_server
        x = np.random.default_rng(2).standard_normal(6)
        status, body = _post(
            base,
            "/predict",
            {"model": "mlp", "input": x.tolist(), "dtype": "float64"},
        )
        assert status == 200
        assert np.array_equal(body["output"], compiled(x))

    def test_healthz(self, http_server):
        _, base, _ = http_server
        status, body = _get(base, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers_alive"] == {"mlp": True}

    def test_models(self, http_server):
        _, base, _ = http_server
        status, body = _get(base, "/models")
        assert status == 200
        (meta,) = body["models"]
        assert meta["name"] == "mlp"
        assert meta["backends"]

    def test_metrics_counts_requests(self, http_server):
        _, base, _ = http_server
        x = [0.0] * 6
        for _ in range(3):
            _post(base, "/predict", {"model": "mlp", "input": x})
        status, body = _get(base, "/metrics")
        assert status == 200
        snap = body["models"]["mlp"]
        assert snap["served"] >= 3
        assert snap["lut_amortization_ratio"] > 0
        assert body["store"]["models"] == 1


class TestErrorMapping:
    def test_unknown_model_404(self, http_server):
        _, base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/predict", {"model": "ghost", "input": [0.0] * 6})
        assert err.value.code == 404

    def test_bad_json_400(self, http_server):
        _, base, _ = http_server
        request = urllib.request.Request(
            base + "/predict", data=b"this is not json"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_missing_input_400(self, http_server):
        _, base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/predict", {"model": "mlp"})
        assert err.value.code == 400

    def test_wrong_width_400(self, http_server):
        _, base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/predict", {"model": "mlp", "input": [0.0] * 5})
        assert err.value.code == 400

    def test_generate_out_of_range_prompt_400(self):
        """Negative / too-large token ids are client errors, not 500s
        (negative ids would otherwise wrap silently into the wrong
        embedding row)."""
        from repro.gen.model import DecoderLM
        from repro.nn.transformer import TransformerConfig

        model = DecoderLM(
            TransformerConfig(dim=16, heads=2, ff_dim=32, layers=1), 20
        )
        compiled = quantize(
            model, QuantConfig(bits=2, mu=4, backend="biqgemm")
        ).compile(batch_hint=1)
        server = Server(config=ServeConfig(workers=1))
        server.add_model("lm", compiled)
        httpd = server.serve_http(port=0)
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            for prompt in ([1, -3], [1, 20]):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _post(
                        base,
                        "/generate",
                        {"model": "lm", "prompt": prompt,
                         "max_new_tokens": 2},
                    )
                assert err.value.code == 400, prompt
        finally:
            server.stop()

    def test_unknown_path_404(self, http_server):
        _, base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/nope")
        assert err.value.code == 404

    def test_empty_body_400(self, http_server):
        _, base, _ = http_server
        request = urllib.request.Request(base + "/predict", data=b"")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400


class TestConcurrentClients:
    def test_fifty_concurrent_requests_all_succeed(self, http_server):
        server, base, compiled = http_server
        rng = np.random.default_rng(3)
        inputs = [
            rng.standard_normal(6).astype(np.float32) for _ in range(50)
        ]
        expected = [compiled(x) for x in inputs]
        statuses = [None] * 50
        outputs = [None] * 50

        def client(i):
            statuses[i], body = _post(
                base, "/predict", {"model": "mlp", "input": inputs[i].tolist()}
            )
            outputs[i] = np.asarray(body["output"], dtype=np.float32)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(50)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert statuses == [200] * 50
        for got, want in zip(outputs, expected):
            assert np.allclose(got, want, rtol=0, atol=1e-6)
        snap = server.metrics()["models"]["mlp"]
        assert snap["served"] >= 50
        # Concurrency actually coalesced: fewer executions than requests.
        assert snap["batches"] < snap["requests"]

    def test_http_lifecycle_stop_is_clean(self):
        compiled = quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
        server = Server(config=ServeConfig(workers=1))
        server.add_model("mlp", compiled)
        httpd = server.serve_http(port=0)
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        assert _get(base, "/healthz")[0] == 200
        server.stop()
        with pytest.raises(urllib.error.URLError):
            _get(base, "/healthz")


def _decoder_lm():
    from repro.gen.model import DecoderLM
    from repro.nn.transformer import TransformerConfig

    model = DecoderLM(
        TransformerConfig(dim=16, heads=2, ff_dim=32, layers=1), 20
    )
    return quantize(model, QuantConfig(bits=2, mu=4)).compile(batch_hint=1)


@pytest.fixture(scope="module")
def mixed_server():
    """One server holding the MLP (``/predict``) and a decoder LM
    (``/generate``), shared by the fuzzed-body tests."""
    server = Server(
        config=ServeConfig(workers=1, max_batch=8, max_latency_ms=2.0)
    )
    server.add_model(
        "mlp", quantize(_mlp(), QuantConfig(bits=2, mu=4)).compile()
    )
    server.add_model("lm", _decoder_lm())
    httpd = server.serve_http(port=0)
    yield httpd.server_address[1]
    server.stop()


def _raw_post(port, path, body: bytes) -> tuple[int, bytes]:
    """POST raw bytes; a dropped connection raises (and fails the
    test) instead of returning a status."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _assert_answered(status: int, data: bytes) -> None:
    assert status == 200 or 400 <= status < 500, (status, data[:300])
    # A stream that started (200) must not end in a server error.
    assert b'"error"' not in data or status != 200, data[-300:]


class TestMalformedBodies:
    @pytest.mark.parametrize(
        "path, body",
        [
            ("/generate", b'{"model": "lm", "prompt": [1e30]}'),
            ("/generate",
             b'{"model": "lm", "prompt": [1], "max_new_tokens": null}'),
            ("/generate", b'{"model": "lm", "prompt": [1], "top_k": []}'),
            ("/generate",
             b'{"model": "lm", "prompt": [1], "max_new_tokens": 1e400}'),
            ("/generate",
             b'{"model": "lm", "prompt": [1], "deadline_ms": 1e400}'),
            ("/predict",
             b'{"model": "mlp", "input": [' + b"1" * 401 + b"]}"),
            ("/predict", b'{"model": "mlp", "input": ' + b"[" * 5000
             + b"]" * 5000 + b"}"),
            ("/predict",
             b'{"model": "mlp", "input": [1, 2, 3, 4, 5, 6], '
             b'"dtype": "longdouble"}'),
        ],
    )
    def test_gets_a_400(self, mixed_server, path, body):
        status, data = _raw_post(mixed_server, path, body)
        assert status == 400, data
        assert json.loads(data)["error"]

    @pytest.mark.parametrize("max_new", [1 << 40, MAX_SEQUENCE_TOKENS - 2])
    def test_too_long_a_sequence_gets_a_400(self, mixed_server, max_new):
        # Admission reserves the KV cache for prompt + max_new_tokens
        # positions: 2^40 used to be a 500 (MemoryError).
        body = json.dumps({"model": "lm", "prompt": [1, 2, 3],
                           "max_new_tokens": max_new}).encode()
        status, data = _raw_post(mixed_server, "/generate", body)
        assert status == 400, data
        assert "max_new_tokens" in json.loads(data)["error"]

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_fuzzed_bodies_get_a_status(self, mixed_server, data):
        path = data.draw(st.sampled_from(["/predict", "/generate"]))
        strategy = PREDICT_BODIES if path == "/predict" else GENERATE_BODIES
        body = json.dumps(data.draw(strategy)).encode()
        if data.draw(st.integers(0, 9)) == 0:
            body = body[: data.draw(st.integers(1, len(body)))]
        _assert_answered(*_raw_post(mixed_server, path, body))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Valid-looking values first, so requests get past decoding and into
# the model as often as they are rejected early.
PREDICT_BODIES = st.fixed_dictionaries(
    {"input": st.lists(st.floats(), min_size=6, max_size=6) | JSON_VALUES},
    optional={
        "model": st.sampled_from(["mlp", "lm", "nope"]) | JSON_VALUES,
        "dtype": st.sampled_from(
            ["float16", "float32", "float64", "int64", "bool", "complex128",
             "U5", "object", "longdouble", "M8[s]", "bogus"]
        ) | JSON_VALUES,
    },
)
# max_new_tokens stays small when it is a number: a valid huge count is
# a real (slow) stream, not a malformed body.
GENERATE_BODIES = st.fixed_dictionaries(
    {
        "model": st.just("lm"),
        "prompt": st.lists(st.integers(-3, 23), max_size=4) | JSON_VALUES,
    },
    optional={
        "max_new_tokens": st.integers(-1, 3)
        | st.sampled_from([None, 2.5, "2", [], {}, 1e300, float("inf")]),
        "temperature": st.floats() | JSON_VALUES,
        "top_k": st.integers(-2, 30) | JSON_VALUES,
        "seed": st.integers() | JSON_VALUES,
        "eos_id": st.integers() | JSON_VALUES,
        "deadline_ms": st.floats() | JSON_VALUES,
    },
)


# Values a strict JSON-integer field must refuse rather than coerce: a
# fraction or float (2.7 -> 2), a numeric string ("5" -> 5), a boolean
# (true -> 1).
NOT_INTEGERS = (
    st.floats() | st.booleans() | st.integers(0, 30).map(str)
    | st.text(max_size=3) | st.lists(st.integers(0, 3), max_size=2)
)
NOT_NUMBERS = (
    st.booleans() | st.integers(0, 30).map(str) | st.text(max_size=3)
    | st.lists(st.floats(), max_size=2)
)
GENERATE_INTEGER_FIELDS = ("max_new_tokens", "seed", "top_k", "eos_id")
GENERATE_NUMBER_FIELDS = ("temperature", "deadline_ms")


def _stream_tokens(port, body: dict) -> list[int]:
    status, data = _raw_post(port, "/generate", json.dumps(body).encode())
    assert status == 200, data
    events = [json.loads(line) for line in data.splitlines()]
    assert events[-1]["done"], events[-1]
    return [event["token"] for event in events[:-1]]


class TestGenerateFieldTypes:
    """``/generate`` takes token ids and counts only as JSON integers
    and ``temperature`` / ``deadline_ms`` only as JSON numbers."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_wrong_typed_field_gets_a_400_naming_it(self, mixed_server, data):
        field = data.draw(
            st.sampled_from(
                ("prompt",) + GENERATE_INTEGER_FIELDS + GENERATE_NUMBER_FIELDS
            ),
            label="field",
        )
        body = {"model": "lm", "prompt": [1, 2], "max_new_tokens": 2}
        if field == "prompt":
            ids = data.draw(st.lists(st.integers(0, 19), max_size=3))
            at = data.draw(st.integers(0, len(ids)))
            ids.insert(at, data.draw(NOT_INTEGERS, label="bad id"))
            body["prompt"] = ids
        elif field in GENERATE_INTEGER_FIELDS:
            body[field] = data.draw(NOT_INTEGERS, label="bad value")
        else:
            body[field] = data.draw(NOT_NUMBERS, label="bad value")
        status, reply = _raw_post(
            mixed_server, "/generate", json.dumps(body).encode()
        )
        assert status == 400, reply
        assert field in json.loads(reply)["error"]

    @settings(max_examples=15, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 19), min_size=1, max_size=5),
        max_new=st.integers(1, 4),
        temperature=st.sampled_from([0, 0.0, 0.8, 2]),
        top_k=st.none() | st.integers(1, 20),
        seed=st.integers(0, 2**31),
    )
    def test_well_formed_body_streams_the_model_tokens(
        self, mixed_server, ids, max_new, temperature, top_k, seed
    ):
        body = {"model": "lm", "prompt": ids, "max_new_tokens": max_new,
                "temperature": temperature, "seed": seed,
                "deadline_ms": 60000}
        if top_k is not None:
            body["top_k"] = top_k
        expected = _decoder_lm().generate(
            np.asarray(ids), max_new, temperature=float(temperature),
            top_k=top_k, seed=seed,
        )
        assert _stream_tokens(mixed_server, body) == expected


class TestNativeJson:
    """The /predict round trip gives the same bytes with and without
    the native JSON codec (the fallback is what a host without a C
    compiler serves with)."""

    def test_reply_bytes_match_the_json_fallback(
        self, http_server, monkeypatch
    ):
        _, base, compiled = http_server
        port = int(base.rsplit(":", 1)[1])
        x = np.random.default_rng(4).standard_normal((3, 6))
        body = json.dumps(
            {"model": "mlp", "input": x.tolist(), "dtype": "float64"}
        ).encode()

        def strip_id(data):
            reply = json.loads(data)
            assert reply.pop("request_id")
            return reply, data[: data.index(b'"request_id"')]

        status, fast = _raw_post(port, "/predict", body)
        monkeypatch.setattr(native, "load", lambda: None)
        status_json, slow = _raw_post(port, "/predict", body)
        assert status == status_json == 200
        assert strip_id(fast) == strip_id(slow)
        assert np.array_equal(json.loads(fast)["output"], compiled(x))


class TestInputRange:
    """A finite ``/predict`` value the dtype cannot hold is a 400 naming
    ``input``, on the native codec and on the ``json`` fallback alike,
    instead of a 200 served on an infinity."""

    @pytest.mark.parametrize(
        "dtype, value", [("float16", 1e300), ("float32", 1e39)]
    )
    @pytest.mark.parametrize("codec", ["native", "json"])
    def test_overflowing_value_gets_a_400(
        self, http_server, monkeypatch, codec, dtype, value
    ):
        _, base, _ = http_server
        port = int(base.rsplit(":", 1)[1])
        if codec == "json":
            monkeypatch.setattr(native, "load", lambda: None)
        elif native.load() is None:
            pytest.skip("native JSON codec unavailable")
        body = json.dumps(
            {"model": "mlp", "input": [value] + [1.0] * 5, "dtype": dtype}
        ).encode()
        status, data = _raw_post(port, "/predict", body)
        assert status == 400, data
        assert "input" in json.loads(data)["error"]

    @pytest.mark.parametrize("codec", ["native", "json"])
    def test_a_value_float64_holds_is_served(
        self, http_server, monkeypatch, codec
    ):
        _, base, _ = http_server
        port = int(base.rsplit(":", 1)[1])
        if codec == "json":
            monkeypatch.setattr(native, "load", lambda: None)
        body = json.dumps(
            {"model": "mlp", "input": [1e300] + [0.0] * 5,
             "dtype": "float64"}
        ).encode()
        status, data = _raw_post(port, "/predict", body)
        assert status == 200, data
