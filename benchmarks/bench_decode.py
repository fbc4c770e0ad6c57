"""Benchmark: autoregressive decode (KV cache vs full recompute).

Two acceptance bars for the ``repro.gen`` decode path:

- **identity**: the KV-cached greedy chain emits exactly the same
  token ids as the full-recompute chain -- the cache is a pure
  optimization, checked as list equality, not a tolerance (this is the
  CI smoke: run with ``-k identity`` on a tiny shape);
- **throughput**: KV-cached ``generate()`` reaches at least 5x the
  recompute loop's tokens/s at 256-token total sequence length, and
  the :class:`SequenceScheduler` coalesces concurrent streams
  (coalescing ratio > 1 with 4 sequences).

The rendered ``decode`` experiment tables land in
``benchmarks/out/decode.txt``; the perf trajectory is committed as
``BENCH_decode.json`` and gated by ``python -m repro.bench compare
decode``.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.bench.registry import decode_experiment, run_experiment


def test_identity_cached_chain_equals_recompute_chain():
    """CI smoke: tiny shape, the emitted ids must match exactly."""
    metrics = decode_experiment(
        quick=True, lengths=(48,), sequence_counts=(1,)
    ).metrics
    assert metrics["identical_len48"] == 1.0, metrics


def test_speedup_at_least_5x_at_256_tokens():
    """The throughput acceptance bar, measured on this machine."""
    metrics = decode_experiment(
        quick=True, lengths=(256,), sequence_counts=(1,)
    ).metrics
    assert metrics["identical_len256"] == 1.0, metrics
    assert metrics["speedup_cached_len256"] >= 5.0, (
        f"KV-cached decode only {metrics['speedup_cached_len256']:.1f}x "
        f"the recompute loop at 256-token sequences (cached "
        f"{metrics['cached_tok_per_s_len256']:.1f} tok/s, recompute "
        f"{metrics['recompute_tok_per_s_len256']:.1f} tok/s)"
    )


def test_scheduler_coalesces_concurrent_streams():
    """Four concurrent streams batch into shared decode ticks."""
    metrics = decode_experiment(
        quick=True, lengths=(48,), sequence_counts=(4,)
    ).metrics
    assert metrics["coalescing_s4"] > 1.0, metrics


@pytest.mark.parametrize("quick", [True])
def test_decode_table_artifact(artifact_dir, quick):
    """Regenerate the decode tables and store them with the others."""
    tables = run_experiment("decode", quick=quick)
    write_artifact(artifact_dir, "decode", tables)
    assert tables and all(t.rows for t in tables)
