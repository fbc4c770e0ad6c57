"""Kernel ledger: Fig. 8 phases and Fig. 10 engines on the served weights.

Run by the traced run in a subprocess with BLAS pinned to one thread::

    python perfbench/kernels.py <workload> <seed> '<[[m, n, cols, dtype, calls], ...]>'

For every QuantLinear of the workload's model, at the batch (columns
per engine call) and dtype its engine was most often served at, this
times the served engine, the batch-invariant BiQGemm under a
PhaseProfiler (LUT build, query, replace), the non-invariant BiQGemm
fast path, and dense GEMM on the dequantized weight.  Sums are per
forward (one call of every layer).  ``kernel.lut_over_dense`` is the
served LUT engines' time over, layer by layer, the best of dense GEMM
and the fast path; above 1 the LUT kernel loses.  Prints one JSON
object.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

ROUNDS = 15


def time_layer(layer, cols: int, dtype: np.dtype, rng) -> dict:
    from repro.core.kernel import BiQGemm
    from repro.core.profiling import PhaseProfiler
    from repro.engine import EngineBuildRequest, build_engine

    m, n = layer.shape
    x = rng.standard_normal((n, cols)).astype(dtype)
    served = layer.engine_for(1)
    invariant = BiQGemm.from_bcq(layer.bcq, mu=layer.spec.mu)
    invariant.batch_invariant = True
    fast = BiQGemm.from_bcq(layer.bcq, mu=layer.spec.mu)
    dense = build_engine(
        "dense", EngineBuildRequest(spec=layer.spec, bcq=layer.bcq)
    )
    profiler = PhaseProfiler()
    variants = {
        "kernel.served_ms": lambda: served.matmul(x),
        "kernel.biqgemm_fast_ms": lambda: fast.matmul(x),
        "gemm.dense_ms": lambda: dense.matmul(x),
        "profiled": lambda: invariant.matmul(x, profiler=profiler),
    }
    for fn in variants.values():
        fn()  # build traces and per-dtype caches
    profiler.reset()
    times = defaultdict(list)
    for _ in range(ROUNDS):
        for name, fn in variants.items():
            start = time.perf_counter()
            fn()
            times[name].append((time.perf_counter() - start) * 1e3)
    del times["profiled"]
    row = {name: statistics.median(values) for name, values in times.items()}
    for phase in ("build", "query", "replace"):
        row[f"core.{phase}_ms"] = profiler.seconds[phase] * 1e3 / ROUNDS
    return row


def main(argv) -> int:
    import workloads

    name, seed, served = argv[0], int(argv[1]), json.loads(argv[2])
    # The batch each shape was served at most often.
    best: dict = {}
    for m, n, cols, dtype, calls in served:
        if calls > best.get((m, n), (0,))[0]:
            best[(m, n)] = (calls, cols, dtype)
    source = workloads.build_model(name, seed)
    rng = np.random.default_rng(0)
    rows: dict = {}
    totals = defaultdict(float)
    alternative = 0.0
    for _, layer in source.named_layers():
        shape = tuple(layer.shape)
        if shape not in best:
            continue
        _, cols, dtype = best[shape]
        served_engine = layer.engine_for(1)
        key = (shape, cols, dtype, type(served_engine).__name__,
               getattr(served_engine, "activation", None))
        if key not in rows:
            rows[key] = time_layer(layer, cols, np.dtype(dtype), rng)
        row = rows[key]
        for metric, value in row.items():
            totals[metric] += value
        alternative += min(row["gemm.dense_ms"], row["kernel.biqgemm_fast_ms"])
    out = dict(totals)
    out["kernel.lut_over_dense"] = out["kernel.served_ms"] / alternative
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
