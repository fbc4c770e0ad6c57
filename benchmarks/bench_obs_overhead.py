"""Benchmark: observability overhead budgets.

Two acceptance bars for :mod:`repro.obs`:

- **disabled** observability is one boolean read per call site -- the
  steady_state compare gate already holds that line;
- the **sampling profiler** is the always-on tier: at the default
  97 Hz it walks ``sys._current_frames()`` from its own thread and
  never touches the hot path, so its forward-p50 tax must stay under
  1% (this module's gate).

Tracing overhead is *not* gated here -- enabling spans deliberately
buys per-layer attribution (an ``engine.matmul`` span, a drift record
and a histogram sample around the same native kernel call an untraced
layer makes); the experiment table records that cost, it does not
promise a bound.

The rendered ``obs_overhead`` experiment table lands in
``benchmarks/out/obs_overhead.txt``; the committed trajectory is
``BENCH_obs_overhead.json`` (``python -m repro.bench compare
obs_overhead --quick``).
"""

import time

import pytest

from benchmarks.conftest import write_artifact
from repro.bench.registry import compiled_mlp, profiler_cost, run_experiment

#: The always-on budget: profiled median time within 1% of the
#: untouched median time.
PROFILER_BUDGET = 0.01

#: Timer quantization makes sub-1% discrimination meaningless on
#: calls much faster than this.
_MIN_CALL_S = 200e-6


def test_profiler_overhead_under_one_percent():
    """The 1% gate: forward times with the profiler off vs on at the
    default 97 Hz, pooled over interleaved off-on-on-off rounds into
    one median per state."""
    cost = profiler_cost(quick=True)
    assert cost["off_p50_ms"] * 1e-3 >= _MIN_CALL_S, (
        f"substrate call too fast to resolve 1% "
        f"({cost['off_p50_ms'] * 1e3:.0f}us); grow the model dims"
    )
    overhead = cost["ratio"] - 1.0
    assert overhead < PROFILER_BUDGET, (
        f"sampling profiler costs {overhead:+.2%} at 97 Hz (pooled over "
        f"{cost['rounds']} rounds); budget is {PROFILER_BUDGET:.0%}"
    )


def test_profiler_actually_sampled_during_measurement():
    """Guards the gate against vacuity: the profiler thread must take
    samples while a measured loop runs."""
    import repro.obs as obs

    compiled, rng = compiled_mlp((256, 512, 32))
    x = rng.standard_normal((2, 256))
    try:
        obs.enable(tracing=False, drift=False, profile=True, clear=True)
        deadline = time.monotonic() + 0.25
        while time.monotonic() < deadline:
            compiled(x)
        profiler = obs.get_profiler()
        assert profiler is not None
        assert profiler.stats()["samples"] > 5
    finally:
        obs.disable()


@pytest.mark.parametrize("quick", [True])
def test_obs_overhead_table_artifact(artifact_dir, quick):
    tables = run_experiment("obs_overhead", quick=quick)
    write_artifact(artifact_dir, "obs_overhead", tables)
