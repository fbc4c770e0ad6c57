"""Benchmark: dispatch planning cost and the Fig. 10 crossover batch.

Records (a) the batch size at which the cost-model planner switches a
layer from BiQGEMM to dense BLAS -- the crossover the paper's Fig. 10
plots -- and (b) what one plan costs, the price each ``"auto"`` layer
pays once, at construction or compile.  The rendered `dispatch`
experiment table is written to ``benchmarks/out/dispatch.txt``.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.engine import QuantSpec, crossover_batch, plan_backend
from repro.bench.registry import run_experiment


def test_plan(benchmark):
    """One cost-model ranking: what each auto layer pays once."""
    spec = QuantSpec(bits=3, backend="auto", machine="pc")
    assert benchmark(
        lambda: plan_backend(1024, 1024, spec=spec, batch_hint=32)
    ) in ("biqgemm", "dense")


def test_crossover_batches_recorded(benchmark):
    """Sweep the crossover per machine/bits and attach it to the report.

    Shape to check (paper Fig. 10): the crossover batch falls as bits
    grow and sits further right on the bandwidth-starved mobile config
    than on the PC.
    """

    def sweep():
        out = {}
        for mkey in ("pc", "mobile"):
            for bits in (1, 2, 3):
                spec = QuantSpec(bits=bits, backend="auto", machine=mkey)
                out[f"{mkey}/{bits}bit"] = crossover_batch(
                    1024, 1024, spec=spec, machine=mkey
                )
        return out

    crossovers = benchmark.pedantic(sweep, rounds=2, iterations=1)
    benchmark.extra_info["crossover_batches"] = {
        k: (v if v is not None else ">1024") for k, v in crossovers.items()
    }
    pc = {b: crossovers[f"pc/{b}bit"] for b in (1, 2, 3)}
    assert pc[3] is not None
    for lo, hi in ((1, 2), (2, 3)):
        if pc[lo] is not None and pc[hi] is not None:
            assert pc[lo] >= pc[hi]
    for bits in (1, 2, 3):
        mobile, pc_b = crossovers[f"mobile/{bits}bit"], pc[bits]
        if mobile is not None and pc_b is not None:
            assert mobile >= pc_b


@pytest.mark.parametrize("quick", [True])
def test_dispatch_experiment_artifact(artifact_dir, quick):
    """Regenerate and persist the dispatch experiment table."""
    tables = run_experiment("dispatch", quick=quick)
    assert tables and tables[0].rows
    write_artifact(artifact_dir, "dispatch", tables)
