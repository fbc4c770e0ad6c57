"""Benchmark: dynamic-batching serving throughput (repro.serve).

The acceptance bar for the serving runtime: under concurrent
single-request clients on a zoo transformer model, the dynamic batcher
must yield at least 2x the req/s of batch-size-1 serving, with every
per-request output bit-identical to unbatched execution.  The rendered
``serve`` experiment table lands in ``benchmarks/out/serve.txt``.
"""

import numpy as np
import pytest

from benchmarks.conftest import write_artifact
from repro.bench.registry import (
    compiled_encoder,
    run_experiment,
    serve_experiment,
)


def test_batcher_doubles_throughput_under_64_clients():
    """The acceptance criterion, measured end to end.

    Local margin is ~6-7x; one re-measure absorbs scheduler noise on
    loaded CI runners before calling a < 2x reading a failure.
    """
    metrics = None
    for _ in range(2):
        metrics = serve_experiment(clients=64, requests_per_client=6).metrics
        # Outputs identical (allclose rtol=0 -- in fact bit-identical),
        # and no request failed.
        assert metrics["off_failed"] == metrics["on_failed"] == 0
        # The mechanism: requests per model execution actually went up.
        assert metrics["on_mean_batch"] > metrics["off_mean_batch"]
        if metrics["speedup_batcher"] >= 2.0:
            break
    assert metrics["speedup_batcher"] >= 2.0, (
        f"dynamic batcher speedup {metrics['speedup_batcher']:.2f}x < 2x "
        f"({metrics['on_req_per_s']:.0f} vs {metrics['off_req_per_s']:.0f} "
        "req/s)"
    )


def test_served_outputs_allclose_rtol_zero():
    """Per-request outputs through the batcher == unbatched, rtol=0."""
    compiled = compiled_encoder()
    rng = np.random.default_rng(7)
    dim = compiled.model.config.dim
    inputs = [rng.standard_normal((4, dim)) for _ in range(16)]
    expected = [compiled(x[None])[0] for x in inputs]
    server = compiled.serve(workers=2, max_batch=16, max_latency_ms=20.0)
    try:
        import threading

        got = [None] * len(inputs)

        def client(i):
            got[i] = server.predict("default", inputs[i])

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(inputs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        server.stop()
    for g, e in zip(got, expected):
        assert np.allclose(g, e, rtol=0, atol=0)


def test_single_request_latency(benchmark):
    """Steady-state per-request latency through the serving stack."""
    compiled = compiled_encoder()
    x = np.random.default_rng(1).standard_normal(
        (4, compiled.model.config.dim)
    )
    server = compiled.serve(workers=1, max_batch=1)
    try:
        benchmark(server.predict, "default", x)
    finally:
        server.stop()


@pytest.mark.parametrize("quick", [True])
def test_serve_table_artifact(artifact_dir, quick):
    """Regenerate the serve table and store it with the others."""
    tables = run_experiment("serve", quick=quick)
    write_artifact(artifact_dir, "serve", tables)
    assert all("MISMATCH" not in str(row) for t in tables for row in t.rows)
