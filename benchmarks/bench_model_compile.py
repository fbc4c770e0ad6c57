"""Benchmark: the model-level quantize -> compile -> serve pipeline.

Times the three phases of the :mod:`repro.api` deployment flow on a
scaled-down Transformer encoder -- the offline quantize step, the
one-pass compile (planning every layer once), and warmed-up serving -- plus the v3 whole-model artifact round trip.
The rendered `model_compile` experiment table is written to
``benchmarks/out/model_compile.txt``.
"""

import numpy as np
import pytest

from benchmarks.conftest import write_artifact
from repro.api import QuantConfig, load, quantize, save
from repro.bench.registry import run_experiment
from repro.nn.model_zoo import build_encoder

CONFIG = QuantConfig(bits=3, mu=8, overrides={"ffn.*": {"bits": 2}})


def _encoder():
    return build_encoder("transformer-base", scale=16, layers=2, seed=0)


def test_quantize_model(benchmark):
    """Offline step: BCQ-quantize every projection of the stack."""
    qm = benchmark(lambda: quantize(_encoder(), CONFIG))
    assert len(qm.named_layers()) == 12


def test_compile(benchmark):
    """One planning pass over all layers."""
    qm = quantize(_encoder(), CONFIG)
    compiled = benchmark(lambda: qm.compile(batch_hint=1))
    assert set(compiled.plans.values()) <= {"biqgemm", "dense"}


def test_serve_decode_batch(benchmark):
    """Steady state: warmed-up single-token inference on pinned engines."""
    compiled = quantize(_encoder(), CONFIG).compile(batch_hint=1).warmup()
    x = np.random.default_rng(0).standard_normal(
        (1, 1, compiled.model.config.dim)
    )
    out = benchmark(compiled, x)
    assert out.shape == x.shape


def test_artifact_roundtrip(benchmark, tmp_path):
    """save -> load of the whole compiled model (the deployment hop)."""
    compiled = quantize(_encoder(), CONFIG).compile(batch_hint=1)
    path = tmp_path / "model.npz"
    save(compiled, path)
    x = np.random.default_rng(1).standard_normal(
        (1, 2, compiled.model.config.dim)
    )
    expected = compiled(x)

    loaded = benchmark(load, path)
    assert np.array_equal(loaded(x), expected)


@pytest.mark.parametrize("quick", [True])
def test_model_compile_table_artifact(artifact_dir, quick):
    """Regenerate the model_compile table and store it with the others."""
    tables = run_experiment("model_compile", quick=quick)
    write_artifact(artifact_dir, "model_compile", tables)
    assert all("MISMATCH" not in str(row) for t in tables for row in t.rows)
