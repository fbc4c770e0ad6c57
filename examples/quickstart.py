"""Quickstart: quantize a weight matrix and multiply with BiQGEMM.

Runs in a few seconds::

    python examples/quickstart.py

Walks the full pipeline of the paper: binary-coding quantization
(Eq. 1-2), offline key compilation (Fig. 5), LUT build + query
(Algorithms 1-2), compares accuracy and weight footprint against the
float baseline, and finishes with the cost-model planner: BiQGEMM wins
at decode batch and dense BLAS at scoring batch (paper Fig. 10's
crossover), and ``compile(batch_hint=b)`` pins each layer to the winner
at its serving batch.
"""

import numpy as np

from repro import BiQGemm, analytic_mu, bcq_quantize, dispatch
from repro.quant.error import relative_frobenius_error, sqnr_db


def main() -> None:
    rng = np.random.default_rng(7)

    # A Transformer-base-sized attention projection: 512 x 512.
    m, n, batch = 512, 512, 18  # batch 18 = the paper's Table II setting
    weights = rng.standard_normal((m, n)).astype(np.float32) * 0.05
    activations = rng.standard_normal((n, batch)).astype(np.float32)

    print(f"weights: {m}x{n} fp32 = {weights.nbytes / 1e6:.3f} MB")
    print(f"analytic LUT-unit for m={m}: mu = {analytic_mu(m)} "
          "(the paper uses mu=8)\n")

    exact = weights @ activations

    for bits in (1, 2, 3):
        # Offline: quantize and compile to keys.  The dense weights are
        # no longer needed after this point.
        bcq = bcq_quantize(weights, bits, method="alternating")
        engine = BiQGemm.from_bcq(bcq, mu=8)

        # Online: multiply through table lookups.
        approx = engine.matmul(activations)

        print(
            f"bits={bits}: keys+scales = {engine.weight_nbytes / 1e6:.4f} MB "
            f"({weights.nbytes / engine.weight_nbytes:.1f}x smaller), "
            f"output SQNR = {sqnr_db(exact, approx):.1f} dB, "
            f"rel error = {relative_frobenius_error(exact, approx):.4f}"
        )

    # The engine is numerically identical to computing Eq. 2 densely.
    bcq = bcq_quantize(weights, 3, method="alternating")
    engine = BiQGemm.from_bcq(bcq, mu=8)
    dense_eq2 = bcq.matmul_dense(activations)
    lut_out = engine.matmul(activations)
    print(
        "\nBiQGEMM vs dense Eq.2 max abs diff: "
        f"{np.abs(dense_eq2 - lut_out).max():.2e} (exact up to fp rounding)"
    )

    # The cost-model planner ranks the engines per batch (the paper's
    # Section V: BiQGEMM at small batch, BLAS at large).  A model plans
    # once, at its serving batch: compile(batch_hint=b) pins every
    # layer to the winner there, and that engine serves every batch.
    from repro.api import QuantConfig, quantize
    from repro.nn import Linear

    model = quantize([Linear(weights)], QuantConfig(bits=3))
    print("\nplanner on the 'pc' machine model:")
    for b in (1, 8, 256):
        plan = dispatch((m, n), bits=3, batch_hint=b, machine="pc")
        compiled = model.compile(batch_hint=b)
        assert compiled.plans == {"0": plan}, compiled.plans
        print(f"  batch {b:>4}: planner picks {plan!r}; "
              f"compile(batch_hint={b}) pins it")
    (_, layer), = compiled.named_layers()
    out = layer(rng.standard_normal((1, n)))  # one row, same engine
    print(f"  one-row output shape {out.shape} on {layer.planned_backend()!r}")


if __name__ == "__main__":
    main()
