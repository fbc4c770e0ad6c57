"""Persisted performance trajectory: ``BENCH_<experiment>.json``.

The experiment registry renders human tables; this module distils the
hot-path experiments into small JSON metric files committed at the repo
root, so every PR leaves a machine-diffable perf record and CI can fail
on regressions instead of trusting prose:

- ``python -m repro.bench <experiment> --emit-json`` writes
  ``BENCH_<experiment>.json`` (p50/p95 latency, request rate,
  allocation-per-call, modelled crossover batch -- whatever the
  experiment's collector measures);
- ``python -m repro.bench compare <experiment>`` re-measures and diffs
  against the committed baseline, failing on regressions beyond a
  noise-aware threshold.

Only *gated* metrics fail a compare: host-portable ratios (speedups,
identity bits, allocation counters) rather than absolute wall-clock,
which moves with the runner.  Absolute numbers are still recorded for
the trajectory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

__all__ = [
    "GATED_METRICS",
    "collect_metrics",
    "compare_metrics",
    "load_trajectory",
    "metric_direction",
    "trajectory_path",
    "write_trajectory",
]

SCHEMA_VERSION = 1

# src/repro/bench/trajectory.py -> repository root.
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: Metrics a ``compare`` run gates on, per experiment.  Chosen for
#: host-portability: ratios of two kernels measured back-to-back on the
#: same machine, bit-identity flags, and allocation-event counts are
#: stable across runners; absolute microseconds are not.
GATED_METRICS: dict[str, tuple[str, ...]] = {
    "steady_state": ("engine_alloc_events", "alloc_b1_bytes"),
    "compiled_kernels": (
        "speedup_vs_biqgemm_b1",
        "speedup_vs_biqgemm_b2",
        "speedup_vs_best_b1",
        "identical_b1",
        "identical_b2",
    ),
    "decode": ("speedup_cached_len256", "identical_len256"),
    # The always-on tier's cost, as a host-portable ratio of two p50s
    # measured back-to-back (profiled / off).  Baseline ~1.0; compare
    # fails when the profiler starts taxing the hot path.
    "obs_overhead": ("profiler_cost_ratio",),
    # The robustness contract as boolean flags (1.0 = held): every
    # request served bit-identically with zero errors, both in steady
    # state and with a worker SIGKILLed mid-load.  Flags, not req/s:
    # absolute cluster throughput moves with core count.
    "serve_cluster": ("cluster_zero_errors", "killed_worker_zero_errors"),
}


def trajectory_path(experiment: str, root: Path | None = None) -> Path:
    """Where ``BENCH_<experiment>.json`` lives (the repo root)."""
    return (root if root is not None else _REPO_ROOT) / (
        f"BENCH_{experiment}.json"
    )


def metric_direction(name: str) -> str | None:
    """``"lower"`` / ``"higher"`` = which way is better; None = untracked.

    Convention by suffix: times and allocation footprints want to fall;
    rates, speedups and identity flags want to rise.
    """
    if name.endswith(("_ms", "_us", "_s", "_bytes", "_events", "_ratio")) or (
        "alloc_ratio" in name
    ):
        return "lower"
    if (
        name.startswith(("speedup_", "identical_"))
        or name.endswith(("_per_s", "_reduction", "_hit_rate",
                          "_zero_errors"))
    ):
        return "higher"
    return None


# ----------------------------------------------------------------------
# collectors
# ----------------------------------------------------------------------
def _steady_state_metrics(quick: bool) -> dict[str, float]:
    from repro.bench.registry import steady_state_rows

    rows = steady_state_rows(quick)
    metrics: dict[str, float] = {}
    for row in rows:
        if row["kind"] == "model":
            b = row["batch"]
            metrics[f"p50_b{b}_ms"] = row["p50_ms"]
            metrics[f"alloc_b{b}_bytes"] = float(row["alloc_bytes"])
            metrics[f"req_per_s_b{b}"] = 1e3 / row["p50_ms"]
        elif row["kind"] == "engine_flat":
            metrics["engine_alloc_events"] = float(row["alloc_events"])
    return metrics


def _compiled_kernels_metrics(quick: bool) -> dict[str, float]:
    from repro.bench.registry import compiled_kernels_rows

    rows = compiled_kernels_rows(quick)
    metrics: dict[str, float] = {}
    for row in rows:
        if row["kind"] == "step":
            b = row["batch"]
            metrics[f"compiled_p50_b{b}_us"] = row["compiled_p50_us"]
            metrics[f"compiled_p95_b{b}_us"] = row["compiled_p95_us"]
            metrics[f"biqgemm_p50_b{b}_us"] = row["biqgemm_p50_us"]
            metrics[f"biqgemm_fast_p50_b{b}_us"] = row["biqgemm_fast_p50_us"]
            metrics[f"dense_p50_b{b}_us"] = row["dense_p50_us"]
            metrics[f"speedup_vs_biqgemm_b{b}"] = row["speedup_vs_biqgemm"]
            metrics[f"speedup_vs_best_b{b}"] = row["speedup_vs_best"]
            metrics[f"req_per_s_b{b}"] = row["req_per_s"]
            metrics[f"alloc_per_call_b{b}_bytes"] = float(
                row["alloc_per_call_bytes"]
            )
            metrics[f"identical_b{b}"] = 1.0 if row["identical"] else 0.0
        elif row["kind"] == "crossover":
            # None = the plan never leaves biqgemm up to batch 1024.
            metrics["crossover_batch"] = float(row["batch"] or 0)
    return metrics


def _decode_metrics(quick: bool) -> dict[str, float]:
    from repro.bench.registry import decode_rows

    metrics: dict[str, float] = {}
    for row in decode_rows(quick):
        if row["kind"] == "decode":
            n = row["length"]
            metrics[f"cached_tok_per_s_len{n}"] = row["cached_tok_per_s"]
            metrics[f"recompute_tok_per_s_len{n}"] = row[
                "recompute_tok_per_s"
            ]
            metrics[f"speedup_cached_len{n}"] = row["speedup"]
            metrics[f"identical_len{n}"] = 1.0 if row["identical"] else 0.0
        elif row["kind"] == "scheduler":
            s = row["sequences"]
            metrics[f"sched_tok_per_s_s{s}"] = row["tok_per_s"]
            metrics[f"coalescing_s{s}"] = row["coalescing_ratio"]
    return metrics


def _obs_overhead_metrics(quick: bool) -> dict[str, float]:
    from repro.bench.registry import obs_overhead_rows, profiler_cost

    metrics: dict[str, float] = {}
    for row in obs_overhead_rows(quick):
        b = row["batch"]
        metrics[f"off_p50_b{b}_ms"] = row["off_p50_ms"]
        metrics[f"traced_p50_b{b}_ms"] = row["on_p50_ms"]
        metrics[f"profiled_p50_b{b}_ms"] = row["profiled_p50_ms"]
    # The gated ratio comes from a dedicated min-of-N best-of-attempts
    # measurement, not the p50 rows above: p50 over short quick runs
    # jitters far beyond the ~1% signal being gated.
    cost = profiler_cost(quick)
    metrics["profiler_cost_ratio"] = cost["ratio"]
    metrics["profiler_off_min_ms"] = cost["off_min_ms"]
    metrics["profiler_on_min_ms"] = cost["profiled_min_ms"]
    return metrics


def _serve_cluster_metrics(quick: bool) -> dict[str, float]:
    from repro.bench.registry import serve_cluster_rows

    metrics: dict[str, float] = {}
    for row in serve_cluster_rows(quick):
        clean = row["errors"] == 0 and row["mismatches"] == 0
        if row["kind"] == "cluster":
            metrics["cluster_req_per_s"] = row["req_per_s"]
            metrics["cluster_zero_errors"] = 1.0 if clean else 0.0
        elif row["kind"] == "killed":
            metrics["killed_req_per_s"] = row["req_per_s"]
            metrics["killed_worker_zero_errors"] = 1.0 if clean else 0.0
            metrics["killed_worker_deaths"] = float(row["deaths"])
            metrics["killed_worker_redelivered"] = float(
                row["redelivered"]
            )
        elif row["kind"] == "scaling":
            # Present only on >= 4-core hosts (the collector skips the
            # phase on narrow machines); compare_metrics skips names
            # absent from either side, so records stay comparable
            # across hosts of different widths.
            metrics["scaling_req_per_s_w4"] = row["req_per_s"]
            metrics["scaling_vs_1worker"] = row["scaling_vs_1worker"]
    return metrics


_COLLECTORS: dict[str, Callable[[bool], dict[str, float]]] = {
    "steady_state": _steady_state_metrics,
    "compiled_kernels": _compiled_kernels_metrics,
    "decode": _decode_metrics,
    "obs_overhead": _obs_overhead_metrics,
    "serve_cluster": _serve_cluster_metrics,
}


def collect_metrics(
    experiment: str, *, quick: bool = False, samples: int = 1
) -> dict:
    """Measure one experiment's trajectory record (JSON-ready dict).

    With ``samples > 1`` the collector runs repeatedly: each metric is
    the per-name median across runs, and gated metrics additionally get
    a recorded relative ``noise`` (max-min spread over the median).
    Baselines written with several samples let :func:`compare_metrics`
    widen its threshold to the measurement's own observed noise instead
    of failing on run-to-run jitter.
    """
    collector = _COLLECTORS.get(experiment)
    if collector is None:
        raise ValueError(
            f"no trajectory collector for {experiment!r}; available: "
            f"{sorted(_COLLECTORS)}"
        )
    runs = [
        collect_raw(experiment, quick=quick) for _ in range(max(1, samples))
    ]
    metrics: dict[str, float] = {}
    for name in runs[0]:
        values = sorted(run[name] for run in runs if name in run)
        metrics[name] = values[len(values) // 2]
    gated = list(GATED_METRICS.get(experiment, ()))
    noise: dict[str, float] = {}
    if len(runs) > 1:
        for name in gated:
            values = [run[name] for run in runs if name in run]
            if not values or metrics.get(name) in (None, 0.0):
                continue
            spread = (max(values) - min(values)) / abs(metrics[name])
            noise[name] = round(spread, 6)
    record = {
        "schema": SCHEMA_VERSION,
        "experiment": experiment,
        "quick": bool(quick),
        "gated": gated,
        "metrics": metrics,
    }
    if noise:
        record["noise"] = noise
    return record


def collect_raw(experiment: str, *, quick: bool = False) -> dict[str, float]:
    """Just the metric mapping (see :func:`collect_metrics`)."""
    return {
        k: round(float(v), 6)
        for k, v in _COLLECTORS[experiment](quick).items()
    }


def write_trajectory(
    experiment: str,
    *,
    quick: bool = False,
    samples: int = 3,
    root: Path | None = None,
) -> Path:
    """Measure and persist ``BENCH_<experiment>.json``; returns the path.

    Defaults to three collection samples so the committed baseline
    carries an honest noise estimate for :func:`compare_metrics`.
    """
    record = collect_metrics(experiment, quick=quick, samples=samples)
    path = trajectory_path(experiment, root)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_trajectory(path: Path) -> dict:
    """Read and validate one committed trajectory file."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported trajectory schema {data.get('schema')!r}"
        )
    return data


def compare_metrics(
    current: dict, baseline: dict, *, threshold: float = 0.10
) -> list[str]:
    """Regression lines for gated metrics of *current* vs *baseline*.

    Empty list = no regression.  A gated metric regresses when it moves
    in its bad direction by more than the allowed band; baselines of
    exactly zero (allocation events) regress on any increase.  The band
    is noise-aware: ``max(threshold, 2 * noise[name])`` where ``noise``
    is the relative spread the baseline recorded across its own
    collection samples -- a metric that jitters 15% run-to-run on the
    baseline host is not failed for a 12% dip.  Metrics absent from
    either side are skipped -- comparing a quick baseline against a
    full run compares only the shared names.
    """
    cur = current.get("metrics", {})
    base = baseline.get("metrics", {})
    noise = baseline.get("noise", {})
    gated = baseline.get("gated") or GATED_METRICS.get(
        baseline.get("experiment", ""), ()
    )
    problems: list[str] = []
    for name in gated:
        if name not in cur or name not in base:
            continue
        c, b = float(cur[name]), float(base[name])
        direction = metric_direction(name)
        if direction is None:
            continue
        if b == 0.0:
            if direction == "lower" and c > 0.0:
                problems.append(
                    f"{name}: {c:g} regressed from a zero baseline"
                )
            continue
        allowed = max(threshold, 2.0 * float(noise.get(name, 0.0)))
        change = (c - b) / abs(b)
        bad = change > allowed if direction == "lower" else (
            -change > allowed
        )
        if bad:
            problems.append(
                f"{name}: {c:g} vs baseline {b:g} "
                f"({change:+.1%}, allowed {allowed:.0%} "
                f"{'increase' if direction == 'lower' else 'drop'})"
            )
    return problems
