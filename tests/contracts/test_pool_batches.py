"""Contract: a coalesced request gets the bytes it gets alone, on both
serving tiers.

One small compiled encoder is served by a threaded server and by a
``cluster=True`` server (worker processes over shared memory).  For
generated bursts of 1-8 requests, each of 1-6 tokens, the requests are
submitted together so that same-shape ones coalesce into one batch;
every reply must equal, byte for byte, the compiled model run on that
request alone in this process.  On a host without the native library
the cluster workers and this process both take the numpy fallback, so
the same property covers it.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import QuantConfig, quantize
from repro.nn import build_encoder
from repro.serve import ServeConfig, Server


@pytest.fixture(scope="module")
def compiled():
    enc = build_encoder("transformer-base", scale=16, layers=1, seed=0)
    return quantize(enc, QuantConfig(bits=2, mu=4)).compile(batch_hint=1)


@pytest.fixture(scope="module", params=["threads", "cluster"])
def server(request, compiled):
    config = ServeConfig(
        workers=2,
        max_batch=8,
        max_latency_ms=20.0,
        cluster=request.param == "cluster",
    )
    server = Server(config=config)
    server.add_model("m", compiled)
    with server:
        yield server


def _burst(server, xs) -> list:
    """Submit *xs* together; returns the replies in order."""
    replies = [None] * len(xs)
    gate = threading.Barrier(len(xs))

    def client(i):
        gate.wait()
        try:
            replies[i] = server.predict("m", xs[i], timeout=60.0)
        except BaseException as exc:  # noqa: BLE001 -- reported below
            replies[i] = exc

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(len(xs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    return replies


@settings(max_examples=60, deadline=None)
@given(
    tokens=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_batched_replies_equal_unbatched(server, compiled, tokens, seed):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((t, 32)) for t in tokens]
    for x, got in zip(xs, _burst(server, xs)):
        assert isinstance(got, np.ndarray), got
        want = compiled(x[None])[0]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_a_burst_coalesces(server):
    """The harness above does form batches: eight same-shape requests
    sent together are served in fewer than eight model calls."""
    before = server.metrics()["models"]["m"]["batches"]
    xs = list(np.random.default_rng(0).standard_normal((8, 3, 32)))
    assert all(isinstance(y, np.ndarray) for y in _burst(server, xs))
    assert server.metrics()["models"]["m"]["batches"] - before < 8
