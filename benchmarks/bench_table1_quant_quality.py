"""Table I bench: quantization quality and quantizer throughput.

Regenerates the Table I proxies (weight SQNR + student accuracy, which
stand in for the paper's BLEU scores) and times the two BCQ solvers on
a Transformer-base-sized attention matrix.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.quant.bcq import bcq_quantize


def test_table1_artifact(benchmark, artifact_dir):
    """Regenerate the Table I tables (paper + both proxies)."""
    from repro.bench.registry import run_experiment

    tables = benchmark.pedantic(
        lambda: run_experiment("table1"), rounds=1, iterations=1
    )
    write_artifact(artifact_dir, "table1", tables)
    # Sanity: the accuracy proxy must show the 1-bit collapse.
    acc = tables[2]
    rows = {(r[0], r[1]): r[2] for r in acc.rows}
    assert rows[("bcq-greedy", 1)] < rows[("bcq-greedy", 4)]


def test_bcq_greedy_throughput_512(benchmark, rng):
    """Greedy 3-bit BCQ of a 512x512 attention matrix (offline cost)."""
    w = rng.standard_normal((512, 512))
    benchmark(lambda: bcq_quantize(w, 3, method="greedy"))


def test_bcq_alternating_throughput_256(benchmark, rng):
    """Alternating 3-bit BCQ of a 256x256 matrix (offline cost)."""
    w = rng.standard_normal((256, 256))
    benchmark.pedantic(
        lambda: bcq_quantize(w, 3, method="alternating"), rounds=3, iterations=1
    )


def test_uniform_quantize_throughput(benchmark, rng):
    """Per-row INT8 uniform quantization of a 512x512 matrix."""
    from repro.quant.uniform import uniform_quantize

    w = rng.standard_normal((512, 512))
    benchmark(lambda: uniform_quantize(w, 8, per_row=True))
