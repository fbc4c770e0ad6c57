"""Serve v3 model artifacts over HTTP from the command line.

::

    python -m repro.serve model.npz --name encoder --port 8000

loads the artifact into a :class:`~repro.serve.ModelStore`, starts the
dynamic-batching worker pool, and blocks on the JSON/HTTP frontend
(``POST /predict``, streaming ``POST /generate`` for decoder LMs,
``GET /models /healthz /metrics /slo /profile``) until interrupted.
Multiple artifacts serve side by side::

    python -m repro.serve a.npz b.npz --name model-a --name model-b
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.serve import ServeConfig, Server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Dynamic-batching HTTP inference server over compiled "
            "whole-model artifacts (repro.api.save)."
        ),
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        help="v3 whole-model artifact path(s) (.npz from repro.api.save)",
    )
    parser.add_argument(
        "--name",
        action="append",
        default=None,
        help=(
            "model name for the matching artifact (repeatable; defaults "
            "to 'default' for one artifact, artifact stems otherwise)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--cluster",
        action="store_true",
        help=(
            "serve from a supervised process pool (one shared-memory "
            "model copy, --workers worker processes, crash redelivery "
            "and the crash-loop breaker) instead of threads"
        ),
    )
    parser.add_argument(
        "--drain-timeout-s",
        type=float,
        default=5.0,
        metavar="S",
        help=(
            "graceful-shutdown budget: how long SIGTERM waits for "
            "live decode streams to finish before teardown"
        ),
    )
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-latency-ms", type=float, default=5.0)
    parser.add_argument("--max-queue", type=int, default=256)
    parser.add_argument(
        "--max-sequences",
        type=int,
        default=16,
        help="live generation streams per model (POST /generate)",
    )
    parser.add_argument(
        "--decode-latency-ms",
        type=float,
        default=2.0,
        help="how long a decode tick waits to coalesce more sequences",
    )
    parser.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="optional LRU memory budget for resident compiled weights",
    )
    parser.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help=(
            "enable request tracing (repro.obs) and write the "
            "chrome://tracing trace-event JSON here on shutdown"
        ),
    )
    parser.add_argument(
        "--drift-file",
        default=None,
        metavar="PATH",
        help=(
            "enable cost-model drift telemetry and write its JSON here "
            "on shutdown (read it with 'python -m repro.obs report')"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run the always-on sampling profiler (97 Hz); folded "
            "flamegraph stacks at GET /profile"
        ),
    )
    parser.add_argument(
        "--slo-latency-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "install a latency SLO: --slo-objective of requests must "
            "finish within MS (enables GET /slo, burn-rate "
            "alerts and 429+Retry-After load shedding while paging)"
        ),
    )
    parser.add_argument(
        "--slo-objective",
        type=float,
        default=0.95,
        help="good fraction the latency SLO promises (default 0.95)",
    )
    parser.add_argument(
        "--slo-availability",
        type=float,
        default=None,
        metavar="FRACTION",
        help="install an availability SLO (e.g. 0.999)",
    )
    parser.add_argument(
        "--slo-tokens-per-s",
        type=float,
        default=None,
        metavar="RATE",
        help="install a decode-throughput SLO floor (tokens/s)",
    )
    return parser


def _slo_specs(args: argparse.Namespace) -> tuple:
    from repro.obs.slo import SLOSpec

    specs = []
    if args.slo_latency_ms is not None:
        specs.append(
            SLOSpec(
                name="latency",
                kind="latency",
                threshold_s=args.slo_latency_ms / 1e3,
                objective=args.slo_objective,
            )
        )
    if args.slo_availability is not None:
        specs.append(
            SLOSpec(
                name="availability",
                kind="availability",
                objective=args.slo_availability,
            )
        )
    if args.slo_tokens_per_s is not None:
        specs.append(
            SLOSpec(
                name="decode-throughput",
                kind="tokens_per_s",
                min_tokens_per_s=args.slo_tokens_per_s,
            )
        )
    return tuple(specs)


def _names(args: argparse.Namespace) -> list[str]:
    if args.name:
        if len(args.name) != len(args.artifacts):
            raise SystemExit(
                f"got {len(args.artifacts)} artifact(s) but "
                f"{len(args.name)} --name flag(s)"
            )
        return list(args.name)
    if len(args.artifacts) == 1:
        return ["default"]
    from pathlib import Path

    return [Path(p).stem for p in args.artifacts]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = ServeConfig(
        workers=args.workers,
        max_batch=args.max_batch,
        max_latency_ms=args.max_latency_ms,
        max_queue=args.max_queue,
        max_sequences=args.max_sequences,
        decode_latency_ms=args.decode_latency_ms,
        budget_bytes=(
            int(args.budget_mb * 1e6) if args.budget_mb is not None else None
        ),
        slos=_slo_specs(args),
        cluster=args.cluster,
        drain_timeout_s=args.drain_timeout_s,
    )
    if args.trace_file or args.drift_file or args.profile:
        import repro.obs as obs

        obs.enable(
            tracing=args.trace_file is not None,
            drift=args.drift_file is not None,
            profile=args.profile,
        )
    server = Server(config=config)
    for name, path in zip(_names(args), args.artifacts):
        server.add_model(name, path)
        print(f"loaded {name!r} from {path}", flush=True)
    server.start()
    print(
        f"serving {len(args.artifacts)} model(s) on "
        f"http://{args.host}:{args.port} "
        f"(workers={config.workers} "
        f"{'processes' if config.cluster else 'threads'}, "
        f"max_batch={config.max_batch}, "
        f"max_latency_ms={config.max_latency_ms})",
        flush=True,
    )
    def _graceful(signum, frame):  # SIGTERM == Ctrl-C: drain and save
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful)
    try:
        server.serve_http(args.host, args.port, block=True)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if args.trace_file:
            from repro.obs.trace import get_tracer

            get_tracer().save(args.trace_file)
            print(f"trace written to {args.trace_file}", flush=True)
        if args.drift_file:
            from repro.obs.drift import get_recorder

            get_recorder().save(args.drift_file)
            print(f"drift telemetry written to {args.drift_file}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
