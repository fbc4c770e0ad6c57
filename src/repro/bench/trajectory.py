"""Persisted performance trajectory: ``BENCH_<experiment>.json``.

Trajectory experiments measure their own flat metrics and declare,
beside the measurement, which of them are gated
(:func:`repro.bench.registry.gated`).  This module turns those metrics
into small JSON records committed at the repo root, so every change
leaves a machine-diffable perf record and CI can fail on regressions
instead of trusting prose:

- ``python -m repro.bench <experiment> --emit-json`` writes
  ``BENCH_<experiment>.json``: each metric's median over three runs --
  the first is the run whose tables it just printed -- and each gated
  metric's relative noise across them;
- ``python -m repro.bench compare <experiment>`` re-measures once and
  diffs against the committed baseline, failing when a gated metric
  moves in its bad direction by more than its band
  (:func:`allowed_band`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.registry import EXPERIMENTS, gated_metrics, measure

__all__ = [
    "BAND_CAP",
    "allowed_band",
    "band_text",
    "collect_metrics",
    "collect_raw",
    "compare_metrics",
    "load_trajectory",
    "metric_direction",
    "trajectory_path",
    "write_trajectory",
]

SCHEMA_VERSION = 1

# src/repro/bench/trajectory.py -> repository root.
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: The widest band a gated metric gets, whatever noise its baseline
#: recorded: a quarter of the baseline.  No gated metric can halve (or
#: double, where lower is better) and still pass.
BAND_CAP = 0.25


def trajectory_path(experiment: str, root: Path | None = None) -> Path:
    """Where ``BENCH_<experiment>.json`` lives (the repo root)."""
    return (root if root is not None else _REPO_ROOT) / (
        f"BENCH_{experiment}.json"
    )


def metric_direction(name: str) -> str | None:
    """``"lower"`` / ``"higher"`` = which way is better; None = untracked.

    Convention by suffix: times and allocation footprints want to fall;
    rates, speedups and identity flags want to rise.  Rates are tested
    first: ``_per_s`` also ends in ``_s``.
    """
    if (
        name.startswith(("speedup_", "identical_"))
        or name.endswith(("_per_s", "_reduction", "_hit_rate",
                          "_zero_errors"))
    ):
        return "higher"
    if name.endswith(("_ms", "_us", "_s", "_bytes", "_events", "_ratio")) or (
        "alloc_ratio" in name
    ):
        return "lower"
    return None


def collect_raw(experiment: str, *, quick: bool = False) -> dict[str, float]:
    """One run's metric mapping, rounded for the JSON record."""
    return _rounded(measure(experiment, quick=quick).metrics)


def _rounded(metrics: dict[str, float]) -> dict[str, float]:
    return {k: round(float(v), 6) for k, v in metrics.items()}


def collect_metrics(
    experiment: str,
    *,
    quick: bool = False,
    samples: int = 1,
    first: dict[str, float] | None = None,
) -> dict:
    """Measure one experiment's trajectory record (JSON-ready dict).

    *first* is the metrics of a run already made, counted as the first
    of the *samples* runs.  Each metric is the per-name median across
    runs; with more than one run, gated metrics also get a recorded
    relative ``noise`` (max-min spread over the median), which widens
    their band in :func:`compare_metrics` up to :data:`BAND_CAP`.
    """
    gated = gated_metrics(experiment)
    if gated is None:
        known = sorted(n for n in EXPERIMENTS if gated_metrics(n))
        raise ValueError(
            f"{experiment!r} records no trajectory; trajectory "
            f"experiments: {known}"
        )
    runs = [_rounded(first)] if first is not None else []
    while len(runs) < max(1, samples):
        runs.append(collect_raw(experiment, quick=quick))
    metrics: dict[str, float] = {}
    for name in runs[0]:
        values = sorted(run[name] for run in runs if name in run)
        metrics[name] = values[len(values) // 2]
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
        "gated": list(gated),
        "metrics": metrics,
    }
    if noise:
        record["noise"] = noise
    return record


def write_trajectory(
    experiment: str,
    *,
    quick: bool = False,
    samples: int = 3,
    first: dict[str, float] | None = None,
    root: Path | None = None,
) -> Path:
    """Measure and persist ``BENCH_<experiment>.json``; returns the path.

    Defaults to three samples (*first* counts as one) so the committed
    baseline carries a noise estimate for :func:`compare_metrics`.
    """
    record = collect_metrics(
        experiment, quick=quick, samples=samples, first=first
    )
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


def allowed_band(name: str, baseline: dict, threshold: float = 0.10) -> float:
    """How far gated metric *name* may move in its bad direction,
    relative to *baseline*: ``max(threshold, 2 * noise[name])``, where
    ``noise`` is the spread the baseline recorded across its own
    samples, capped at :data:`BAND_CAP`."""
    noise = float(baseline.get("noise", {}).get(name, 0.0))
    return min(BAND_CAP, max(threshold, 2.0 * noise))


def band_text(name: str, baseline: dict, threshold: float = 0.10) -> str:
    """The band *name* gets against *baseline*, in words."""
    direction = metric_direction(name)
    base = baseline.get("metrics", {})
    if direction is None or name not in base:
        return "none (skipped)"
    if float(base[name]) == 0.0:
        return "no increase (zero baseline)" if direction == "lower" else (
            "any value (zero baseline)"
        )
    band = allowed_band(name, baseline, threshold)
    return f"{band:.0%} {'increase' if direction == 'lower' else 'drop'}"


def compare_metrics(
    current: dict, baseline: dict, *, threshold: float = 0.10
) -> list[str]:
    """Regression lines for gated metrics of *current* vs *baseline*.

    Empty list = no regression.  A gated metric regresses when it moves
    in its bad direction (:func:`metric_direction`) by more than
    :func:`allowed_band`; a lower-is-better baseline of exactly zero
    (allocation events) regresses on any increase.  Metrics absent from
    either side are skipped -- comparing a quick baseline against a
    full run compares only the shared names.
    """
    cur = current.get("metrics", {})
    base = baseline.get("metrics", {})
    problems: list[str] = []
    for name in baseline.get("gated", ()):
        direction = metric_direction(name)
        if name not in cur or name not in base or direction is None:
            continue
        c, b = float(cur[name]), float(base[name])
        if b == 0.0:
            if direction == "lower" and c > 0.0:
                problems.append(
                    f"{name}: {c:g} regressed from a zero baseline"
                )
            continue
        change = (c - b) / abs(b)
        worse = change if direction == "lower" else -change
        if worse > allowed_band(name, baseline, threshold):
            problems.append(
                f"{name}: {c:g} vs baseline {b:g} ({change:+.1%}, allowed "
                f"{band_text(name, baseline, threshold)})"
            )
    return problems
