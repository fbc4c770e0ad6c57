"""Drift report: where the planner's ranking disagrees with reality.

Turns drift telemetry (a live :class:`~repro.obs.drift.DriftRecorder`
or a saved ``drift.json``) into per-shape rows comparing, for every
engine the planner priced, the cost model's **predicted** seconds with
the **measured** p50 of real calls -- then ranks shapes by *regret*:
how much slower the planner's pick measures than the measured-best
engine.  Regret 1.0 means the planner picked the engine that really is
fastest; regret 1.3 means its pick costs 30% over the best available.

Predictions missing from the telemetry (e.g. a measurement-only file)
are backfilled through :func:`repro.engine.dispatch.plan_costs` using
the spec fields each entry recorded, so a report always has both sides.

``python -m repro.obs report`` is the CLI.  With no telemetry at all it
runs :func:`demo_sweep` -- a small live predicted-vs-measured sweep --
so the command demonstrates the paper's crossover story out of the box.
"""

from __future__ import annotations

import time

__all__ = ["build_report", "demo_sweep", "format_report"]


def _group_key(entry: dict) -> tuple:
    return (
        int(entry["m"]),
        int(entry["n"]),
        int(entry["bits"]),
        int(entry["bucket"]),
    )


def _backfill_predictions(groups: dict) -> None:
    """Fill ``predicted_s`` where missing, via the live cost model."""
    from repro.engine.base import QuantSpec
    from repro.engine.dispatch import plan_costs

    for (m, n, bits, bucket), engines in groups.items():
        missing = [
            name
            for name, cell in engines.items()
            if cell["predicted_s"] is None
        ]
        if not missing:
            continue
        sample = engines[missing[0]]
        try:
            spec = QuantSpec(
                bits=bits,
                mu=int(sample.get("mu", 8)),
                machine=str(sample.get("machine", "pc")),
            )
            costs = plan_costs(
                m,
                n,
                spec=spec,
                batch_hint=bucket,
                machine=spec.machine,
                candidates=tuple(missing),
            )
        except Exception:  # noqa: BLE001 -- unknown engine/machine in file
            continue
        for name, estimate in costs.items():
            engines[name]["predicted_s"] = float(estimate.seconds)
            engines[name]["predicted_backfilled"] = True


def build_report(entries: list[dict], *, backfill: bool = True) -> dict:
    """Per-shape predicted-vs-measured rows, ranked by planner regret.

    *entries* is the :meth:`DriftRecorder.snapshot` /
    :func:`repro.obs.drift.load` form.  Returns ``{"shapes": [...],
    "summary": {...}}``; each shape row carries an ``engines`` table
    (predicted seconds, measured p50, measured/predicted ratio), the
    planner's pick (min predicted), the measured-best engine, and
    ``regret`` = measured(pick) / measured(best).
    """
    groups: dict[tuple, dict[str, dict]] = {}
    for entry in entries:
        cell = {
            "predicted_s": entry.get("predicted_s"),
            "measured_count": int(entry.get("measured_count", 0)),
            "measured_p50_s": entry.get("measured_p50_s"),
            "mu": entry.get("mu", 8),
            "machine": entry.get("machine", "pc"),
        }
        groups.setdefault(_group_key(entry), {})[entry["backend"]] = cell

    if backfill:
        _backfill_predictions(groups)

    shapes = []
    disagreements = 0
    for (m, n, bits, bucket), engines in sorted(groups.items()):
        priced = {
            name: cell["predicted_s"]
            for name, cell in engines.items()
            if cell["predicted_s"] is not None
        }
        measured = {
            name: cell["measured_p50_s"]
            for name, cell in engines.items()
            if cell["measured_count"] > 0
            and cell["measured_p50_s"] is not None
        }
        pick = min(priced, key=priced.get) if priced else None
        best = min(measured, key=measured.get) if measured else None
        regret = None
        if (
            pick is not None
            and best is not None
            and pick in measured
            and measured[best] > 0
        ):
            regret = measured[pick] / measured[best]
        agree = pick is not None and pick == best
        if pick is not None and best is not None and not agree:
            disagreements += 1
        engine_rows = {}
        for name, cell in sorted(engines.items()):
            ratio = None
            predicted = cell["predicted_s"]
            p50 = cell["measured_p50_s"] if cell["measured_count"] else None
            if predicted and p50 is not None:
                ratio = p50 / predicted
            engine_rows[name] = {
                "predicted_s": predicted,
                "measured_p50_s": p50,
                "measured_count": cell["measured_count"],
                "measured_over_predicted": ratio,
                "backfilled": bool(cell.get("predicted_backfilled")),
            }
        shapes.append(
            {
                "m": m,
                "n": n,
                "bits": bits,
                "bucket": bucket,
                "engines": engine_rows,
                "planner_pick": pick,
                "measured_best": best,
                "agree": agree,
                "regret": regret,
            }
        )

    # Worst regret first; shapes without a regret (one side missing)
    # sink to the bottom in shape order.
    shapes.sort(key=lambda row: -(row["regret"] or 0.0))
    return {
        "shapes": shapes,
        "summary": {
            "shapes": len(shapes),
            "disagreements": disagreements,
        },
    }


def format_report(report: dict, *, top: int | None = None) -> str:
    """Human-readable text rendering of :func:`build_report` output."""
    lines: list[str] = []
    shapes = report["shapes"]
    if top is not None:
        shapes = shapes[:top]
    summary = report["summary"]
    lines.append(
        f"cost-model drift: {summary['shapes']} shape(s), "
        f"{summary['disagreements']} planner disagreement(s)"
    )
    for row in shapes:
        head = (
            f"\n({row['m']} x {row['n']})  bits={row['bits']}  "
            f"batch-bucket={row['bucket']}"
        )
        if row["regret"] is not None:
            verdict = "agrees" if row["agree"] else "DISAGREES"
            head += (
                f"  planner {verdict}: picked {row['planner_pick']}, "
                f"measured best {row['measured_best']} "
                f"(regret {row['regret']:.2f}x)"
            )
        elif row["planner_pick"] is not None:
            head += f"  planner pick: {row['planner_pick']} (no measurements)"
        lines.append(head)
        lines.append(
            f"  {'engine':<10} {'predicted':>12} {'measured p50':>14} "
            f"{'meas/pred':>10} {'n':>6}"
        )
        for name, cell in row["engines"].items():
            predicted = cell["predicted_s"]
            p50 = cell["measured_p50_s"]
            ratio = cell["measured_over_predicted"]
            mark = "*" if cell["backfilled"] else ""
            lines.append(
                "  {:<10} {:>12} {:>14} {:>10} {:>6}".format(
                    name,
                    f"{predicted * 1e3:.3f}ms{mark}" if predicted else "-",
                    f"{p50 * 1e3:.3f}ms" if p50 is not None else "-",
                    f"{ratio:.2f}x" if ratio is not None else "-",
                    cell["measured_count"] or "-",
                )
            )
    if any(
        cell["backfilled"]
        for row in shapes
        for cell in row["engines"].values()
    ):
        lines.append("\n  * predicted cost backfilled from the live model")
    return "\n".join(lines)


def demo_sweep(
    shapes: tuple[tuple[int, int], ...] = ((256, 256), (1024, 256)),
    batches: tuple[int, ...] = (1, 32),
    *,
    bits: int = 3,
    repeats: int = 3,
    seed: int = 0,
) -> list[dict]:
    """A small live predicted-vs-measured sweep (the bare-CLI demo).

    Builds the cost-model candidates for each shape, times real matmul
    calls at each batch, and records both sides into a private
    :class:`~repro.obs.drift.DriftRecorder`.  Returns its snapshot --
    feed it to :func:`build_report`.
    """
    import numpy as np

    from repro.engine.base import EngineBuildRequest, QuantSpec
    from repro.engine.dispatch import batch_bucket, plan_costs
    from repro.engine.registry import build_engine
    from repro.obs.drift import DriftRecorder

    recorder = DriftRecorder()
    rng = np.random.default_rng(seed)
    spec = QuantSpec(bits=bits)
    for m, n in shapes:
        request = EngineBuildRequest(
            spec=spec, weight=rng.standard_normal((m, n))
        )
        for batch in batches:
            bucket = batch_bucket(batch)
            costs = plan_costs(m, n, spec=spec, batch_hint=bucket)
            for name, estimate in costs.items():
                recorder.record_prediction(
                    name, m, n, bits, bucket, estimate.seconds,
                    mu=spec.mu, machine=spec.machine,
                )
            x = rng.standard_normal((n, batch)).astype(np.float32)
            for name in costs:
                engine = build_engine(name, request)
                engine.matmul(x)  # warm caches / lazy builds
                for _ in range(repeats):
                    start = time.perf_counter()
                    engine.matmul(x)
                    recorder.record_measurement(
                        name, m, n, bits, batch,
                        time.perf_counter() - start,
                        mu=spec.mu, machine=spec.machine,
                    )
    return recorder.snapshot()
