"""Smoke: serve a whole-model artifact from a ``python -m repro.serve``
subprocess to 50 concurrent ``/predict`` clients.

The test saves a compiled encoder (3-bit, mu=8, ``ffn.*`` at 2 bits),
serves it from a separate server process with two workers and dynamic
batching, fires 50 concurrent requests, and checks that every one got
a 200 and that ``/metrics`` counted them, batched them and amortized
the LUT builds.
"""

import json
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import QuantConfig, quantize, save
from repro.nn.model_zoo import build_encoder


@pytest.mark.smoke
def test_fifty_concurrent_predicts_against_a_subprocess_server(
    tmp_path, serve_subprocess
):
    config = QuantConfig(bits=3, mu=8, overrides={"ffn.*": {"bits": 2}})
    encoder = build_encoder("transformer-base", scale=16, layers=2, seed=0)
    artifact = tmp_path / "serve_model.npz"
    save(quantize(encoder, config).compile(batch_hint=1), artifact)

    base = serve_subprocess(
        artifact, "--name", "encoder", "--workers", "2",
        "--max-batch", "16", "--max-latency-ms", "5",
    )

    rng = np.random.default_rng(0)
    body = json.dumps({
        "model": "encoder",
        "input": rng.standard_normal((4, 32)).tolist(),
    }).encode()

    def fire(_):
        request = urllib.request.Request(base + "/predict", data=body)
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status

    with ThreadPoolExecutor(max_workers=50) as pool:
        statuses = list(pool.map(fire, range(50)))
    assert statuses == [200] * 50, statuses

    with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
        snap = json.loads(r.read())["models"]["encoder"]
    assert snap["served"] >= 50, snap
    assert snap["errors"] == 0, snap
    assert snap["batches"] >= 1, snap
    assert snap["lut_amortization_ratio"] > 0, snap
