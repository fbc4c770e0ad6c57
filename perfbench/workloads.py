"""The benchmark's workloads: seeded models, inputs and references.

Each workload builds its model from the seed, compiles it, and saves
the v3 artifact that the server under test loads; the server sees only
that artifact and the generated request bodies.  References come from
the same artifact loaded in the benchmark process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NEW_TOKENS = 48
PROMPT_LENGTHS = (8, 64)


@dataclass(frozen=True)
class Workload:
    name: str
    route: str  # "/predict" or "/generate"
    clients: int
    cluster: bool
    pool: int  # distinct inputs, walked in order by the clients
    why: str
    # Batcher and decode-tick coalescing windows; None keeps the
    # server default.
    max_latency_ms: float | None = None
    decode_latency_ms: float | None = None

    def serve_args(self) -> list[str]:
        """``python -m repro.serve`` flags beyond the defaults."""
        args = ["--cluster"] if self.cluster else []
        if self.max_latency_ms is not None:
            args += ["--max-latency-ms", str(self.max_latency_ms)]
        if self.decode_latency_ms is not None:
            args += ["--decode-latency-ms", str(self.decode_latency_ms)]
        return args

    def serve_config(self):
        """The in-process :class:`~repro.serve.ServeConfig` matching
        :meth:`serve_args`."""
        from repro.serve import ServeConfig

        window = {}
        if self.max_latency_ms is not None:
            window["max_latency_ms"] = self.max_latency_ms
        if self.decode_latency_ms is not None:
            window["decode_latency_ms"] = self.decode_latency_ms
        return ServeConfig(cluster=self.cluster, **window)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "predict-b1", "/predict", clients=1, cluster=False, pool=64,
            why=(
                "batch-1 GEMV through /predict on the threaded tier: the "
                "kernel and the batcher's lone-request wait, no "
                "coalescing, attention, IPC or decode"
            ),
        ),
        # A 20 ms coalescing window.  The two requests of a round reach
        # the batcher several ms apart, because each parses a ~90 KB
        # body under the GIL.  With the default 5 ms window the batch
        # mix flipped between pairs and singles as the host's speed
        # drifted (17-66% singles, p50 63-77 ms over 8 s windows); at
        # 20 ms every batch is the pair this workload is meant to run.
        Workload(
            "encode-c2-cluster", "/predict", clients=2, cluster=True,
            pool=32, max_latency_ms=20.0,
            why=(
                "2 clients, fixed (32,128) encoder inputs on --cluster: "
                "IPC and shared memory, coalescing into batches of 2, "
                "attention, ~90 KB JSON bodies"
            ),
        ),
        # A 10 ms decode-tick window.  With the default 2 ms, whether
        # a tick caught both streams' steps depended on how fast each
        # handler thread sampled and wrote its token, so the share of
        # two-sequence ticks drifted with the host (on a 2-core VM,
        # 1.72-1.83 tokens per tick and ITL p50 8.3-10.1 ms over three
        # 20 s runs of one seed).
        # At 10 ms every tick with both streams live carries both, and
        # streams that finish together restart together.
        Workload(
            "generate-s2", "/generate", clients=2, cluster=False,
            pool=16, decode_latency_ms=10.0,
            why=(
                "2 greedy /generate streams, prompts of 8-64 tokens, 48 "
                "new tokens: prefill, KV cache, decode ticks, sampler "
                "and per-token streaming"
            ),
        ),
    )
}


def _rng(seed: int, part: int) -> np.random.Generator:
    return np.random.default_rng([seed, part])


def build_model(name: str, seed: int):
    """The workload's compiled model (float/BCQ state kept in memory,
    which the kernel ledger builds its comparison engines from)."""
    from repro.api import QuantConfig, quantize

    config = QuantConfig(bits=3, mu=8)
    if name == "predict-b1":
        from repro.api.model import QuantMLP
        from repro.nn.linear import Linear

        rng = _rng(seed, 0)
        dims = (1024, 1024, 1024, 1024, 16)
        layers = [
            Linear(
                rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
                rng.standard_normal(dims[i + 1]) * 0.01,
            )
            for i in range(len(dims) - 1)
        ]
        model = QuantMLP(layers)
    elif name == "encode-c2-cluster":
        from repro.nn import build_encoder

        model = build_encoder("transformer-base", scale=4, layers=2, seed=seed)
    elif name == "generate-s2":
        from repro.gen import DecoderLM
        from repro.nn import TransformerConfig

        model = DecoderLM(
            TransformerConfig(dim=128, heads=4, ff_dim=512, layers=2),
            vocab_size=512,
            seed=seed,
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    return quantize(model, config).compile(batch_hint=1)


def make_inputs(name: str, seed: int) -> list:
    """The seeded input pool: arrays for /predict, prompts for
    /generate."""
    workload = WORKLOADS[name]
    rng = _rng(seed, 1)
    if name == "predict-b1":
        return [
            rng.standard_normal(1024).astype(np.float32)
            for _ in range(workload.pool)
        ]
    if name == "encode-c2-cluster":
        return [
            rng.standard_normal((32, 128)).astype(np.float32)
            for _ in range(workload.pool)
        ]
    # Prompt lengths are drawn one per equal-width stratum of 8..64 and
    # shuffled, so every seed spans the whole range (and crosses the
    # same KV-cache buckets) while the draw itself stays seeded.
    lo, hi = PROMPT_LENGTHS
    edges = np.linspace(lo, hi + 1, workload.pool + 1)
    lengths = np.floor(
        edges[:-1] + rng.random(workload.pool) * np.diff(edges)
    ).astype(int)
    rng.shuffle(lengths)
    return [rng.integers(0, 512, size=int(n)) for n in lengths]


def encode_bodies(name: str, inputs: list) -> list[bytes]:
    if WORKLOADS[name].route == "/generate":
        return [
            json.dumps(
                {"prompt": p.tolist(), "max_new_tokens": NEW_TOKENS}
            ).encode()
            for p in inputs
        ]
    return [
        json.dumps({"input": x.tolist(), "dtype": "float32"}).encode()
        for x in inputs
    ]


def references(name: str, artifact: Path, inputs: list) -> list:
    """Expected output per pool entry from the in-process model:
    ``CompiledModel(x)`` unbatched for /predict, ``generate(prompt,
    48)`` for /generate."""
    from repro.api import load

    compiled = load(artifact)
    if WORKLOADS[name].route == "/generate":
        return [compiled.generate(p, NEW_TOKENS) for p in inputs]
    return [np.asarray(compiled(x[None])[0]) for x in inputs]


def check(route: str, exchange, expected) -> bool:
    """True when the exchange succeeded and its output equals the
    reference bit for bit (predict) or token for token (generate)."""
    if exchange.error is not None or exchange.status != 200:
        return False
    try:
        if route == "/predict":
            got = np.asarray(
                json.loads(exchange.body)["output"], dtype=expected.dtype
            )
            return (
                got.shape == expected.shape
                and got.tobytes() == expected.tobytes()
            )
        events = [json.loads(line) for _, line in exchange.lines]
    except (ValueError, KeyError, TypeError):
        return False
    tokens = [e["token"] for e in events if "token" in e]
    done = events[-1] if events else {}
    return (
        tokens == list(expected)
        and not any("error" in e for e in events)
        and done.get("done") is True
        and done.get("finish_reason") == "length"
    )


def token_times(exchange) -> list[float]:
    """Arrival time of each token line of a streamed exchange."""
    return [t for t, line in exchange.lines if b'"token"' in line]
