"""Trace a serving run end to end and read everything back.

Runs in a few seconds::

    python examples/observe_serve.py

Turns on all three tiers of :mod:`repro.obs` (request tracing +
cost-model drift telemetry, the sampling profiler, and an SLO spec on
the server), serves a small quantized MLP under concurrent clients,
and then reads back everything the run produced:

- ``observe_trace.json`` -- chrome://tracing / Perfetto trace-event
  JSON.  Open it at https://ui.perfetto.dev: each request is a
  ``serve.admit`` -> ``serve.queue`` span pair on the client thread, a
  worker's ``serve.batch`` span links every request it coalesced, and
  the execution bottoms out in one ``engine.matmul`` span per layer
  call -- the native LUT kernel an untraced request runs too.
- the Prometheus exposition of the unified metrics registry (what
  ``GET /metrics?format=prometheus`` serves), including OpenMetrics
  exemplars: latency buckets annotated with the trace id of a request
  that landed in them -- the bridge from an aggregate to a span tree;
- the SLO engine's status (what ``GET /slo`` serves): burn rates over
  both windows and the ``ok``/``warn``/``page`` state per spec;
- ``observe_profile.folded`` -- folded stacks from the 97 Hz sampling
  profiler (what ``GET /profile`` serves); feed it to flamegraph.pl
  or https://speedscope.app;
- ``observe_drift.json`` plus its rendered report -- the cost model's
  predicted seconds next to measured wall time per (engine, shape,
  batch-bucket), ranked by planner regret (``python -m repro.obs
  report observe_drift.json`` reads the same file).
"""

import collections
import threading

import numpy as np

import repro.obs as obs
from repro.api import QuantConfig, QuantMLP, quantize
from repro.nn.linear import Linear
from repro.obs.drift import get_recorder
from repro.obs.metrics import get_registry
from repro.obs.report import build_report, format_report
from repro.obs.slo import SLOSpec
from repro.obs.trace import get_tracer
from repro.serve import ServeConfig, Server

TRACE_FILE = "observe_trace.json"
DRIFT_FILE = "observe_drift.json"
PROFILE_FILE = "observe_profile.folded"


def main() -> None:
    obs.enable(tracing=True, drift=True, profile=True, clear=True)
    rng = np.random.default_rng(0)

    dims = (32, 64, 10)
    mlp = QuantMLP(
        [
            Linear(rng.standard_normal((m, n)), rng.standard_normal(m))
            for n, m in zip(dims[:-1], dims[1:])
        ]
    )
    # Pin the LUT engine so every engine.matmul span times it.
    compiled = quantize(
        mlp, QuantConfig(bits=3, mu=4, backend="biqgemm")
    ).compile(batch_hint=8)

    # A lenient latency SLO: this run should hold "ok", but the burn
    # rates and state machine are live at GET /slo all the same.
    slo = SLOSpec(
        name="latency", kind="latency", threshold_s=0.5, objective=0.95,
        fast_window_s=5.0, slow_window_s=30.0,
    )
    server = Server(
        config=ServeConfig(
            workers=2, max_batch=8, max_latency_ms=2.0,
            slos=(slo,), slo_eval_interval_s=0.1,
        )
    )
    server.add_model("mlp", compiled)
    server.start()

    def client(i: int) -> None:
        x = rng.standard_normal(dims[0]).astype(np.float32)
        server.predict("mlp", x, timeout=10.0, request_id=f"req{i:013d}")

    threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Scrape before stop(): teardown retracts the per-model serve series
    # (a scrape must never report a model that no longer serves).
    prometheus = get_registry().to_prometheus()
    from repro.obs.slo import get_engine

    slo_status = get_engine().snapshot()
    server.stop()

    tracer = get_tracer()
    tracer.save(TRACE_FILE)
    names = collections.Counter(s.name for s in tracer.spans())
    print(f"wrote {TRACE_FILE} ({tracer.stats()['retained']} spans):")
    for name, count in sorted(names.items()):
        print(f"  {count:>4} x {name}")

    print("\nmetrics (prometheus exposition, excerpt):")
    for line in prometheus.splitlines():
        if line.startswith(("repro_serve_", "repro_engine_builds_")):
            print(f"  {line}")

    # Exemplars: latency buckets annotated with the trace id of a
    # request that landed in them (OpenMetrics " # {trace_id=...}").
    exemplar_lines = [ln for ln in prometheus.splitlines() if " # {" in ln]
    print(f"\nexemplar-annotated buckets ({len(exemplar_lines)}), excerpt:")
    for line in exemplar_lines[:4]:
        print(f"  {line}")

    specs = slo_status["specs"]
    print("\nSLO status (GET /slo):")
    for spec in specs:
        print(
            f"  {spec['name']}: {spec['state']} "
            f"(fast burn {spec['fast_burn']:.2f}, "
            f"slow burn {spec['slow_burn']:.2f})"
        )

    profiler = obs.get_profiler()
    folded = profiler.folded()
    with open(PROFILE_FILE, "w") as fh:
        fh.write(folded + "\n")
    stats = profiler.stats()
    print(
        f"\nwrote {PROFILE_FILE} ({stats['samples']} samples at "
        f"{stats['hz']:g} Hz); hottest stacks:"
    )
    ranked = sorted(
        (ln for ln in folded.splitlines() if ln),
        key=lambda ln: int(ln.rsplit(" ", 1)[1]),
        reverse=True,
    )
    for line in ranked[:3]:
        stack, count = line.rsplit(" ", 1)
        leaf = stack.split(";")[-1]
        print(f"  {count:>4} x ...;{leaf}")

    get_recorder().save(DRIFT_FILE)
    print(f"\nwrote {DRIFT_FILE}; report:\n")
    print(format_report(build_report(get_recorder().snapshot())))

    obs.disable()


if __name__ == "__main__":
    main()
