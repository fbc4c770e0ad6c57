"""Smoke: stream ``/generate`` from a ``python -m repro.serve`` subprocess.

The test saves a decoder-LM artifact, serves it from a separate server
process, reads one full token stream, walks away from a second one
mid-stream, and checks that the server cancelled it, counted both in
``/metrics`` and traced the decode worker's spans.
"""

import json
import time
import urllib.request

import pytest

from repro.api import QuantConfig, quantize, save
from repro.gen import DecoderLM
from repro.nn import TransformerConfig


def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


@pytest.mark.smoke
def test_stream_and_cancel_against_a_subprocess_server(
    tmp_path, serve_subprocess
):
    model = DecoderLM(
        TransformerConfig(dim=64, heads=4, ff_dim=128, layers=2),
        vocab_size=200, seed=0,
    )
    artifact = tmp_path / "gen_model.npz"
    save(quantize(model, QuantConfig(bits=3, mu=8)).compile(batch_hint=1),
         artifact)

    base = serve_subprocess(
        artifact, "--name", "lm", "--workers", "1",
        "--max-sequences", "8", "--decode-latency-ms", "2",
        "--trace-file", tmp_path / "gen_trace.json",
    )

    # One full stream: every token arrives as its own JSON line.
    body = json.dumps({"model": "lm", "prompt": [5, 17, 42],
                       "max_new_tokens": 24}).encode()
    request = urllib.request.Request(base + "/generate", data=body)
    tokens, done = [], None
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.headers["Content-Type"].startswith(
            "application/jsonl"), response.headers["Content-Type"]
        for line in response:
            event = json.loads(line)
            if event.get("done"):
                done = event
                break
            tokens.append(event["token"])
    assert len(tokens) == 24, len(tokens)
    assert done and done["finish_reason"] == "length", done

    # A client that walks away after three tokens: the server must
    # cancel the sequence and free its scheduler slot.  The length
    # only has to outlast the three reads.
    body = json.dumps({"model": "lm", "prompt": [1, 2, 3],
                       "max_new_tokens": 8000}).encode()
    request = urllib.request.Request(base + "/generate", data=body)
    response = urllib.request.urlopen(request, timeout=60)
    for _ in range(3):
        json.loads(response.readline())
    response.close()
    time.sleep(1.0)

    gen = _get_json(base + "/metrics")["models"]["lm"]["generation"]
    assert gen["tokens"] >= 27, gen
    assert gen["tokens_per_s"] > 0, gen
    assert gen["cancelled"] == 1, gen
    assert gen["completed"] == 1, gen
    assert gen["inter_token_ms"]["p50"] > 0, gen

    # The decode worker threads gen.prefill/gen.step spans into the
    # live trace.
    events = _get_json(base + "/trace")["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    for expected in ("gen.prefill", "gen.step"):
        assert expected in names, f"missing span {expected}"
