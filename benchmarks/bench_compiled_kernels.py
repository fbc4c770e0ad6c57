"""Benchmark: the ``biqgemm`` engine's native fused kernel.

Two acceptance bars for the engine's native path:

- **identity**: the fused ``act(W @ x + bias)`` step is bit-identical
  to the unfused reference -- the batch-invariant numpy BiQGemm matmul
  followed by the same bias/activation epilogue -- for every fusible
  activation and small batch (this is the CI smoke: run with
  ``-k identity`` on a tiny shape);
- **speedup**: at the paper's Table IV GEMV regime (1-bit weights,
  m = n = 4096, batch 1-2) the native engine beats the best
  alternative -- batch-invariant numpy BiQGemm, dense BLAS, or the
  non-invariant numpy fast path -- by >= 1.2x p50 on the fused step.

The rendered ``compiled_kernels`` experiment table lands in
``benchmarks/out/compiled_kernels.txt``.
"""

import numpy as np
import pytest

from benchmarks.conftest import write_artifact
from repro.bench.registry import compiled_kernels_experiment, run_experiment
from repro.core.kernel import BiQGemm
from repro.engine import EngineBuildRequest, QuantSpec, build_engine
from repro.nn.functional import FUSIBLE_ACTIVATIONS, activation_fn
from repro.quant.bcq import bcq_quantize

SPEEDUP_BAR = 1.2


def _numpy_reference(w, *, bits, mu):
    """The unfused batch-invariant numpy kernel."""
    engine = BiQGemm.from_bcq(bcq_quantize(w, bits), mu=mu)
    engine.batch_invariant = True
    return engine


@pytest.mark.parametrize("activation", sorted(FUSIBLE_ACTIVATIONS))
@pytest.mark.parametrize("batch", [1, 2, 5])
def test_identity_fused_step_matches_unfused_reference(activation, batch):
    """CI smoke: tiny shape, fused output == unfused reference bits."""
    rng = np.random.default_rng(3)
    m, n = 48, 64
    w = rng.standard_normal((m, n))
    bias = rng.standard_normal(m)
    spec = QuantSpec(bits=2, mu=4, fuse=activation)
    compiled = build_engine(
        "biqgemm", EngineBuildRequest(spec=spec, weight=w, bias=bias)
    )
    reference = _numpy_reference(w, bits=2, mu=4)
    act = activation_fn(activation)
    for dtype in (np.float64, np.float32):
        x = rng.standard_normal((n, batch)).astype(dtype)
        # Bias folds in the pre-activation accumulator dtype; the
        # activation itself may then promote (tanh and friends).
        pre = reference.matmul(x)
        want = act(pre + bias.astype(pre.dtype)[:, None])
        got = compiled.matmul(x)
        assert got.dtype == want.dtype, (activation, dtype)
        assert np.array_equal(got, want), (activation, dtype)


def test_identity_holds_on_strided_input():
    """CI smoke: the native kernel must see through striding."""
    rng = np.random.default_rng(4)
    m, n = 32, 48
    w = rng.standard_normal((m, n))
    bias = rng.standard_normal(m)
    compiled = build_engine(
        "biqgemm",
        EngineBuildRequest(
            spec=QuantSpec(bits=3, mu=8, fuse="relu"), weight=w, bias=bias
        ),
    )
    reference = _numpy_reference(w, bits=3, mu=8)
    big = rng.standard_normal((2 * n, 2)).astype(np.float32)
    x = big[::2]  # strided (n, 2) view
    pre = reference.matmul(np.ascontiguousarray(x))
    want = activation_fn("relu")(pre + bias.astype(pre.dtype)[:, None])
    assert np.array_equal(compiled.matmul(x), want)


def test_gemv_small_batch_speedup_at_least_1_2x():
    """The speedup acceptance bar, measured at the full Table IV shape.

    ``speedup_vs_best`` compares the native engine against the best
    alternative (batch-invariant numpy BiQGemm, dense BLAS, and the
    non-invariant numpy fast path) running the same fused step with a
    separate epilogue.  One re-measure absorbs scheduler noise.
    """
    best = None
    for _ in range(2):
        metrics = compiled_kernels_experiment(repeats=30).metrics
        assert metrics["identical_b1"] == metrics["identical_b2"] == 1.0
        best = {b: metrics[f"speedup_vs_best_b{b}"] for b in (1, 2)}
        if all(v >= SPEEDUP_BAR for v in best.values()):
            break
    assert best and all(v >= SPEEDUP_BAR for v in best.values()), (
        f"compiled vs best existing engine p50 speedups {best} "
        f"below the {SPEEDUP_BAR}x bar"
    )


@pytest.mark.parametrize("quick", [True])
def test_compiled_kernels_table_artifact(artifact_dir, quick):
    """Regenerate the compiled-kernels table and store it with the rest."""
    tables = run_experiment("compiled_kernels", quick=quick)
    write_artifact(artifact_dir, "compiled_kernels", tables)
    assert tables and tables[0].rows
