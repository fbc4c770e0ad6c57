"""Smoke: a traced ``python -m repro.serve`` subprocess exports parsable
Prometheus text, trace JSON, SLO state and profiler stacks, and writes
trace and drift files at shutdown that ``python -m repro.obs report``
renders.

The server runs with tracing, drift telemetry, the sampling profiler
and a loose latency SLO on; 16 concurrent ``/predict`` clients drive
it.  Every exemplar on a latency bucket must carry one of those
requests' ids, and one request id must thread the trace from
``serve.admit`` down to ``engine.matmul``.
"""

import json
import re
import subprocess
import sys
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import QuantConfig, quantize, save
from repro.nn.model_zoo import build_encoder

# One Prometheus sample line, with an optional OpenMetrics exemplar.
SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+"
    r"( # \{trace_id=\"[^\"]*\"\} -?[0-9.eE+-]+)?$"
)
SPANS = (
    "serve.admit", "serve.queue", "serve.batch", "worker.execute",
    "model.forward", "engine.matmul",
)


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read()


@pytest.mark.smoke
def test_traced_server_exports_and_writes_files_at_shutdown(
    tmp_path, serve_subprocess
):
    encoder = build_encoder("transformer-base", scale=16, layers=2, seed=0)
    artifact = tmp_path / "obs_model.npz"
    save(
        quantize(encoder, QuantConfig(bits=3, mu=8)).compile(batch_hint=1),
        artifact,
    )
    trace_file = tmp_path / "obs_trace.json"
    drift_file = tmp_path / "obs_drift.json"
    base = serve_subprocess(
        artifact, "--name", "encoder", "--workers", "2",
        "--max-batch", "16", "--max-latency-ms", "5",
        "--trace-file", trace_file, "--drift-file", drift_file,
        "--profile", "--slo-latency-ms", "5000",
    )

    body = json.dumps({
        "model": "encoder",
        "input": np.random.default_rng(0).standard_normal((4, 32)).tolist(),
    }).encode()

    def fire(_):
        request = urllib.request.Request(base + "/predict", data=body)
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())["request_id"]

    with ThreadPoolExecutor(max_workers=16) as pool:
        request_ids = list(pool.map(fire, range(16)))
    assert all(request_ids)

    # Prometheus exposition parses line by line, including OpenMetrics
    # exemplar suffixes on histogram buckets.
    url = base + "/metrics?format=prometheus"
    with urllib.request.urlopen(url, timeout=10) as response:
        content_type = response.headers["Content-Type"]
        text = response.read().decode()
    assert content_type.startswith("text/plain"), content_type
    for line in text.strip().splitlines():
        if not line.startswith("#"):
            assert SAMPLE.match(line), f"unparsable: {line!r}"
    for family in ("repro_serve_latency_seconds_bucket",
                   "repro_serve_requests_total", "repro_trace_enabled 1"):
        assert family in text, f"missing {family}"
    exemplars = [l for l in text.splitlines() if " # {trace_id=" in l]
    assert exemplars, "no exemplar-annotated bucket lines"
    assert any(
        rid in line for rid in request_ids for line in exemplars
    ), "exemplars carry foreign ids"

    # The SLO engine is installed and healthy under this traffic.
    slo = json.loads(_get(base + "/slo"))
    assert slo["enabled"], slo
    assert slo["specs"][0]["state"] == "ok", slo

    # The sampling profiler serves parsable folded stacks.
    folded = _get(base + "/profile").decode()
    assert folded.strip(), "profiler collected no samples"
    for line in folded.strip().splitlines():
        stack, count = line.rsplit(" ", 1)
        assert stack and int(count) > 0, f"bad folded line: {line!r}"

    # The live trace threads one request id through the span tree.
    events = json.loads(_get(base + "/trace"))["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    names = {e["name"] for e in complete}
    for expected in SPANS:
        assert expected in names, f"missing span {expected}"
    assert any(
        e["args"].get("trace_id") == request_ids[0] for e in complete
    )

    # SIGTERM drains the server and writes both files.
    serve_subprocess.stop(base)
    assert json.loads(trace_file.read_text())["traceEvents"], "empty trace"
    assert json.loads(drift_file.read_text())["entries"], "empty drift"
    report = subprocess.run(
        [sys.executable, "-m", "repro.obs", "report", str(drift_file),
         "--top", "5"],
        env=serve_subprocess.env, capture_output=True, text=True,
        timeout=120,
    )
    assert report.returncode == 0, report.stdout + report.stderr
