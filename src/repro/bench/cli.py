"""Command line for the experiment harness.

Usage::

    python -m repro.bench list
    python -m repro.bench table4
    python -m repro.bench all --quick --out results/
    python -m repro.bench steady_state --emit-json
    python -m repro.bench compare compiled_kernels

``all`` runs every registered experiment; ``--out`` additionally writes
one ``<experiment>.txt`` artifact per experiment.  ``--emit-json``
writes the experiment's ``BENCH_<experiment>.json`` perf-trajectory
record at the repo root (trajectory experiments only), reusing the
printed run as its first sample; ``compare`` re-measures an experiment
and fails (exit 1) when a gated metric regresses past the committed
baseline by more than its band (``--threshold``, widened by the
baseline's recorded noise, capped at 25%).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.registry import EXPERIMENTS, gated_metrics, measure
from repro.bench.report import render_table
from repro.bench.trajectory import (
    band_text,
    collect_metrics,
    compare_metrics,
    load_trajectory,
    trajectory_path,
    write_trajectory,
)

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the BiQGEMM paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id, 'all', 'list', or 'compare' "
        f"(ids: {', '.join(sorted(EXPERIMENTS))})",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="for 'compare': the experiment whose committed "
        "BENCH_<experiment>.json baseline to diff against",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink sweeps for a fast smoke run",
    )
    parser.add_argument(
        "--emit-json",
        action="store_true",
        help="also write BENCH_<experiment>.json at the repo root "
        "(perf trajectory; trajectory experiments only)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="for 'compare': allowed relative regression on gated "
        "metrics (default 0.10; widened to twice the baseline's "
        "recorded noise, never past 0.25)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="for 'compare': baseline JSON path (defaults to the "
        "committed BENCH_<experiment>.json)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write per-experiment .txt artifacts",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="append ASCII charts for experiments that support them "
        "(currently fig10)",
    )
    return parser


def _compare(args) -> int:
    if args.target is None:
        print("error: compare needs an experiment id", file=sys.stderr)
        return 2
    baseline_path = args.baseline or trajectory_path(args.target)
    if not baseline_path.exists():
        print(
            f"error: no committed baseline at {baseline_path}; generate "
            f"one with 'python -m repro.bench {args.target} --emit-json'",
            file=sys.stderr,
        )
        return 2
    baseline = load_trajectory(baseline_path)
    try:
        current = collect_metrics(args.target, quick=args.quick)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = compare_metrics(
        current, baseline, threshold=args.threshold
    )
    gated = baseline.get("gated", [])
    bands = {
        name: band_text(name, baseline, args.threshold) for name in gated
    }
    for name in gated:
        cur = current["metrics"].get(name)
        base = baseline["metrics"].get(name)
        print(
            f"{args.target}.{name}: current={cur} baseline={base} "
            f"band={bands[name]}"
        )
    if problems:
        for line in problems:
            print(f"REGRESSION {args.target}.{line}", file=sys.stderr)
        return 1
    print(
        f"compare {args.target}: {len(gated)} gated metric(s) within "
        "their bands (" + ", ".join(f"{n} {b}" for n, b in bands.items())
        + ")"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _parser().parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.experiment == "compare":
        return _compare(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        try:
            run = measure(name, quick=args.quick)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = "\n".join(render_table(t) for t in run.tables)
        if args.plot and name == "fig10":
            from repro.bench.registry import fig10_chart

            charts = [fig10_chart("pc"), fig10_chart("mobile", m=4096)]
            text = text + "\n" + "\n".join(charts)
        print(text)
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(text)
        if args.emit_json:
            if gated_metrics(name) is None:
                print(f"(no trajectory for {name}; JSON skipped)")
            else:
                path = write_trajectory(
                    name, quick=args.quick, first=run.metrics
                )
                print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
