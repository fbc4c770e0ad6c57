"""Quantize a whole model in 5 lines: the repro.api pipeline.

Runs in a few seconds::

    python examples/model_api.py

Walks the model-level deployment flow the paper implies: one
declarative config (mixed bit-widths via a glob override), one
quantize pass over a Transformer encoder, one compile pass planning
every layer through the cost model, a look at the per-layer cost
report, and finally the v3 whole-model artifact -- save in this
"offline" process, reload as the "server" would, byte-identical
outputs.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import QuantConfig, load, quantize, save
from repro.nn import build_encoder


def main() -> None:
    rng = np.random.default_rng(11)

    # The 5 lines: config -> quantize -> compile -> warmup -> serve.
    config = QuantConfig(bits=3, mu=8, overrides={"ffn.*": {"bits": 2}})
    encoder = build_encoder("transformer-base", scale=8, layers=2, seed=0)
    compiled = quantize(encoder, config).compile(batch_hint=1).warmup()
    x = rng.standard_normal((1, 6, encoder.config.dim))
    y = compiled(x)

    print("config:", config.to_dict(), "\n")
    print(f"served a (1, 6, {encoder.config.dim}) sequence -> {y.shape}\n")

    # What did the one-pass planner decide, and what did it cost?
    report = compiled.cost_report()
    print(report)
    print(f"\nlayers per engine: {report.by_backend()}\n")

    # Deployment hop: the artifact carries compiled engine state (keys,
    # scales, plans, config) -- never float weights.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "encoder.npz"
        save(compiled, path)
        served = load(path)
        same = np.array_equal(served(x), y)
        print(f"artifact: {path.stat().st_size / 1024:.1f} KB on disk")
        print(f"reloaded model output byte-identical: {same}")
        assert same


if __name__ == "__main__":
    main()
