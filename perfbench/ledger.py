"""The traced run: per-layer metrics that add up to the client's time.

The same inputs are served from an in-process :class:`repro.serve.Server`
over HTTP while the benchmark's own spans time calls into each module's
public functions (the program itself is not modified).  Spans live in
memory and are reduced to per-layer metrics once the load stops.

Every workload reports the same metrics.  A request is one ``/predict``
call or one ``/generate`` stream; a model call is one
``CompiledModel.__call__`` (a batch) or one ``decode_step_many`` (a
decode tick).  Ledger of one request (ms per request)::

    client time = residual           client socket, connect, thread start
                + serve.http         HTTP handler minus the server's API
                                     (Server.predict, or Server.generate
                                     and the stream's iteration)
                + serve.wait         API time outside the model work:
                                     batcher queue, or the stream's waits
                                     between ticks
                + model              model work the request waited on:
                                     its batch's forward (call_predict on
                                     --cluster, IPC included), or prefill,
                                     its decode ticks and sampling

and of one model call::

    model.call = nn.linear (every QuantLinear) + nn.nongemm

Parts that only some workloads have (prefill, sampling, cluster IPC,
each QuantLinear by path, each engine backend) are printed in a
``diagnostics`` line before the result.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import loadgen
import workloads

# In-process server launches; the setup parts are their medians.
SETUP_LAUNCHES = 3
# Cluster batches replayed in-process to split call_predict's time.
REPLAY_BATCHES = 48
RECONCILE_TOLERANCE = 0.05
# Set-up parts every workload has; the cluster's spawn time is a
# diagnostic (it is inside serve.start).
SETUP_PARTS = ("api.load_ms", "serve.start_ms")


@dataclass
class Span:
    name: str
    sid: int
    parent: int
    start: float
    end: float
    info: dict | None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Spans:
    """Timing wrappers installed on class attributes, recording while
    :attr:`recording` is set.  Parentage follows the calling thread's
    stack of open spans."""

    def __init__(self):
        self.events: list[Span] = []
        self.recording = False
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, info=None, outermost=False):
        """Time ``owner.attr`` as span *name*.  *info(*args)* adds
        attributes; with *outermost*, a call nested in a span of the
        same name is not recorded (an engine delegating to another)."""
        original = owner.__dict__[attr]
        spans = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if not spans.recording:
                return original(*args, **kwargs)
            stack = spans._stack()
            if outermost and stack and stack[-1][1] == name:
                return original(*args, **kwargs)
            sid = next(spans._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.events.append(
                    Span(name, sid, parent, start, end,
                         info(*args) if info else None)
                )

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def hook(self, owner, attr: str, after):
        """Call ``after(result)`` on every return of ``owner.attr``."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            after(result)
            return result

        setattr(owner, attr, hooked)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.events if s.name == name]


def instrument(spans: Spans, paths: dict) -> None:
    """Wrap the layer boundaries.  *paths* maps ``id(QuantLinear)`` to
    its dotted path; every model the server clones registers here."""
    import socketserver

    from repro.api.model import CompiledModel
    from repro.core.kernel import BiQGemm
    from repro.engine.adapters import DenseGemmEngine
    from repro.engine.compiled import CompiledKernelEngine
    from repro.gen.model import DecoderLM
    from repro.gen.sampler import Sampler
    from repro.nn.linear import QuantLinear
    from repro.serve.cluster import ClusterPool, Supervisor
    from repro.serve.sequences import GenerationStream
    from repro.serve.server import Server

    def register(compiled) -> None:
        for path, layer in compiled.named_layers():
            paths[id(layer)] = path

    def columns(engine, x, *rest):
        arr = np.asarray(x)
        return {
            "backend": type(engine).backend_name,
            "shape": tuple(engine.shape),
            "cols": 1 if arr.ndim == 1 else int(arr.shape[1]),
            "dtype": arr.dtype.str,
        }

    spans.hook(CompiledModel, "clone", register)
    spans.wrap(socketserver.BaseServer, "finish_request", "serve.http")
    spans.wrap(Server, "predict", "serve.predict")
    spans.wrap(Server, "generate", "serve.generate")
    spans.wrap(GenerationStream, "__next__", "serve.stream_next")
    spans.wrap(
        CompiledModel, "__call__", "api.forward",
        info=lambda self, x, *a: {"batch": len(x)},
    )
    spans.wrap(
        CompiledModel, "decode_step_many", "gen.tick",
        info=lambda self, tokens, *a: {"batch": len(tokens)},
    )
    spans.wrap(DecoderLM, "prefill", "gen.prefill")
    spans.wrap(Sampler, "sample", "gen.sample")
    spans.wrap(
        QuantLinear, "__call__", "nn.linear",
        info=lambda self, *a: {"path": paths.get(id(self), "?")},
    )
    for engine in (BiQGemm, CompiledKernelEngine, DenseGemmEngine):
        spans.wrap(engine, "matmul", "engine", info=columns, outermost=True)
    spans.wrap(
        ClusterPool, "call_predict", "cluster.call_predict",
        info=lambda self, stacked, *a: {"batch": len(stacked),
                                        "stacked": stacked},
    )
    spans.wrap(Supervisor, "start", "cluster.spawn")


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def _import_ms(src) -> float:
    """Wall time of a fresh interpreter importing ``repro.serve``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.serve"], env=env, check=True
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _launch(workload, artifact, spans: Spans, paths: dict):
    """Start an in-process server on an ephemeral port; returns it with
    its set-up parts in ms."""
    from repro.serve import Server

    server = Server(config=workload.serve_config())
    t0 = time.perf_counter()
    server.add_model("default", artifact)
    t1 = time.perf_counter()
    for path, layer in server.store.get("default").named_layers():
        paths[id(layer)] = path
    spans.events.clear()
    spans.recording = True
    try:
        server.start()
    finally:
        spans.recording = False
    t2 = time.perf_counter()
    httpd = server.serve_http(port=0)
    parts = {"api.load_ms": (t1 - t0) * 1e3, "serve.start_ms": (t2 - t1) * 1e3}
    spawn = spans.named("cluster.spawn")
    if spawn:
        parts["serve.cluster.spawn_ms"] = sum(s.ms for s in spawn)
    spans.events.clear()
    return server, httpd.server_address[1], parts


def traced(args, workdir, src, warmup_s: float, segments: int) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed)
    bodies = workloads.encode_bodies(args.workload, inputs)
    artifact = workdir / "model.npz"
    source = workloads.build_model(args.workload, args.seed)
    source.save(artifact)
    expected = workloads.references(args.workload, artifact, inputs)
    probes = [loadgen.host_probes()]
    metrics = {"serve.import_ms": _import_ms(src)}
    extra = {}

    spans, paths = Spans(), {}
    instrument(spans, paths)
    server = None
    try:
        setups = []
        for i in range(SETUP_LAUNCHES):
            if server is not None:
                server.stop()
            server, port, parts = _launch(workload, artifact, spans, paths)
            setups.append(parts)
        for key in setups[0]:
            median = statistics.median(p[key] for p in setups)
            (metrics if key in SETUP_PARTS else extra)[key] = median
        warm = loadgen.run_clients(
            port, workload.route, bodies, workload.clients, warmup_s
        )
        spans.recording = True
        jiffies = loadgen.cpu_jiffies()
        measured = loadgen.run_clients(
            port, workload.route, bodies, workload.clients, args.seconds,
            segments,
        )
        extra["host.steal_pct"] = loadgen.steal_pct(
            jiffies, loadgen.cpu_jiffies()
        )
        spans.recording = False
        server.stop()
        server = None
        replayed = []
        if workload.cluster:
            replayed = _replay(spans, paths, artifact)
    finally:
        spans.recording = False
        if server is not None:
            server.stop()
        spans.restore()
        if workload.cluster:
            # The cluster's shared memory started multiprocessing's
            # resource tracker in this process; end it and wait for it.
            from multiprocessing import resource_tracker

            resource_tracker._resource_tracker._stop()
    probes.append(loadgen.host_probes())

    exchanges = warm + measured
    ok = [workloads.check(workload.route, e, expected[e.index]) for e in exchanges]
    good = [e for e, fine in zip(measured, ok[len(warm):]) if fine]
    layers, engines = _layers(spans, replayed, workload.route, extra)
    metrics.update(layers)
    if workload.route == "/predict":
        ledger = _predict_ledger(spans, good, replayed, metrics, extra)
    else:
        ledger = _generate_ledger(spans, good, metrics, extra)
    metrics.update(_kernel_ledger(args, src, engines))
    for key in probes[0]:
        metrics[key] = statistics.median(p[key] for p in probes)
    gap = _reconcile(ledger, metrics)
    extra["reconcile.gap_pct"] = gap * 100
    print(f"ledger (ms per request): {ledger}", file=sys.stderr)
    print(json.dumps({"diagnostics": extra}))
    return {
        "correct": all(ok) and gap <= RECONCILE_TOLERANCE,
        "attempted": len(exchanges),
        "failed": ok.count(False),
        "metrics": {
            name: {"value": float(value), "unit": unit_of(name)}
            for name, value in sorted(metrics.items())
        },
    }


def _kernel_ledger(args, src, engine_spans: list[Span]) -> dict:
    """Run ``kernels.py`` on the shapes, batches and dtypes the engines
    were served at, in a single-threaded subprocess (the paper's Fig.
    10 setup; multi-threaded BLAS GEMV is dominated by thread hand-off
    on a 2-core host)."""
    served = sorted(
        (*key, count)
        for key, count in Counter(
            (*s.info["shape"], s.info["cols"], s.info["dtype"])
            for s in engine_spans
        ).items()
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("kernels.py")),
         args.workload, str(args.seed), json.dumps(served)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _replay(spans: Spans, paths: dict, artifact) -> list[Span]:
    """Replay an evenly spaced sample of the batches the cluster
    workers ran through an in-process model (same artifact), traced:
    the worker processes' forward time, measured where spans can see
    it.  Returns the replay's spans."""
    from repro.api import load

    calls = spans.named("cluster.call_predict")
    step = max(1, len(calls) // REPLAY_BATCHES)
    sample = [c.info["stacked"] for c in calls[::step][:REPLAY_BATCHES]]
    model = load(artifact)
    for path, layer in model.named_layers():
        paths[id(layer)] = path
    model.warmup(sample=sample[0][0])
    before = len(spans.events)
    spans.recording = True
    try:
        for stacked in sample:
            model(stacked)
    finally:
        spans.recording = False
    replayed = spans.events[before:]
    del spans.events[before:]
    return replayed


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _weighted(spans: list[Span]) -> float:
    """Mean duration as seen by a request: a batch of b requests
    counts b times."""
    total = sum(s.info["batch"] for s in spans)
    return sum(s.ms * s.info["batch"] for s in spans) / total


def _predict_ledger(spans: Spans, good, replayed, metrics, extra) -> dict:
    client = _mean((e.end - e.start) * 1e3 for e in good)
    http = _mean(s.ms for s in spans.named("serve.http"))
    predict = _mean(s.ms for s in spans.named("serve.predict"))
    calls = spans.named("cluster.call_predict")
    ledger = {"client": client, "model_calls_per_req": 1.0}
    if calls:
        waited = _weighted(calls)
        # Derived: the round trip minus the same batches' forward,
        # replayed in-process (the workers' time, where spans see it).
        ledger["ipc"] = extra["serve.cluster.ipc_ms_per_batch"] = (
            _mean(s.ms for s in calls) - metrics["model.call_ms"]
        )
        batches = calls
    else:
        batches = spans.named("api.forward")
        waited = _weighted(batches)
    extra["serve.batch_mean"] = _mean(s.info["batch"] for s in batches)
    metrics["model.ms_per_req"] = waited
    metrics["model.ms_per_output"] = (
        metrics["model.call_ms"] / extra["serve.batch_mean"]
    )
    metrics["serve.http_ms_per_req"] = http - predict
    metrics["serve.wait_ms_per_req"] = predict - waited
    metrics["residual_ms_per_req"] = client - http
    metrics["traced.latency_p50_ms"] = loadgen.percentile(
        [(e.end - e.start) * 1e3 for e in good], 50
    )
    return ledger


def _generate_ledger(spans: Spans, good, metrics, extra) -> dict:
    streams = len(good)
    client = _mean((e.end - e.start) * 1e3 for e in good)
    http = sum(s.ms for s in spans.named("serve.http")) / streams
    server = (
        sum(s.ms for s in spans.named("serve.generate"))
        + sum(s.ms for s in spans.named("serve.stream_next"))
    ) / streams
    prefill = spans.named("gen.prefill")
    ticks = spans.named("gen.tick")
    samples = spans.named("gen.sample")
    tokens = sum(len(workloads.token_times(e)) for e in good)
    waited = sum(s.ms * s.info["batch"] for s in ticks) / streams
    sampled = sum(s.ms for s in samples) / streams
    extra["gen.prefill_ms_per_stream"] = _mean(s.ms for s in prefill)
    extra["gen.tick_ms"] = metrics["model.call_ms"]
    extra["gen.tick_seqs_mean"] = _mean(s.info["batch"] for s in ticks)
    extra["gen.sample_ms_per_token"] = _mean(s.ms for s in samples)
    model = extra["gen.prefill_ms_per_stream"] + waited + sampled
    extra["serve.stream_ms_per_token"] = (server - model) * streams / tokens
    extra["serve.batch_mean"] = extra["gen.tick_seqs_mean"]
    metrics["model.ms_per_req"] = model
    metrics["model.ms_per_output"] = (
        metrics["model.call_ms"] / extra["gen.tick_seqs_mean"]
    )
    metrics["serve.http_ms_per_req"] = http - server
    metrics["serve.wait_ms_per_req"] = server - model
    metrics["residual_ms_per_req"] = client - http
    itl = []
    for e in good:
        times = workloads.token_times(e)
        itl.extend((b - a) * 1e3 for a, b in zip(times, times[1:]))
    metrics["traced.latency_p50_ms"] = loadgen.percentile(itl, 50)
    return {
        "client": client,
        # Sequence-ticks per stream: the ticks a stream waited on.
        "model_calls_per_req": sum(s.info["batch"] for s in ticks) / streams,
        "prefill": extra["gen.prefill_ms_per_stream"],
        "sampling": sampled,
    }


def _layers(spans: Spans, replayed: list[Span], route: str, extra: dict):
    """Per-model-call QuantLinear, non-GEMM and engine times, over the
    calls made inside a forward (``CompiledModel.__call__``; a decode
    tick on ``/generate``, whose prefill is reported whole).  Each
    QuantLinear by path and each engine backend go to *extra*.

    Returns the metrics and the engine spans inside model calls (the
    kernel ledger's batches).
    """
    events = replayed or spans.events
    parent_name = "api.forward" if route == "/predict" else "gen.tick"
    forwards = {s.sid: s for s in events if s.name == parent_name}
    linear = {
        s.sid: s for s in events
        if s.name == "nn.linear" and s.parent in forwards
    }
    engines = [
        s for s in events if s.name == "engine" and s.parent in linear
    ]
    calls = len(forwards)
    by_path = defaultdict(list)
    for s in linear.values():
        by_path[s.info["path"]].append(s.ms)
    for path, times in by_path.items():
        extra[f"nn.linear.{path}_ms_per_call"] = _mean(times)
    by_backend = defaultdict(list)
    for s in engines:
        by_backend[s.info["backend"]].append(s.ms)
    for backend, times in by_backend.items():
        extra[f"engine.{backend}_ms_per_call"] = _mean(times)
    call = _mean(f.ms for f in forwards.values())
    gemm = sum(s.ms for s in linear.values()) / calls
    out = {
        "model.call_ms": call,
        "nn.linear_ms_per_call": gemm,
        "nn.nongemm_ms_per_call": call - gemm,
        "engine.matmul_ms_per_call": sum(s.ms for s in engines) / calls,
    }
    return out, engines


def _reconcile(ledger: dict, metrics: dict) -> float:
    """Rebuild the client's mean time from the reported per-layer
    metrics (and the workload's own parts in *ledger*); returns the
    relative gap."""
    forward = (
        metrics["nn.linear_ms_per_call"] + metrics["nn.nongemm_ms_per_call"]
    )
    parts = (
        metrics["residual_ms_per_req"]
        + metrics["serve.http_ms_per_req"]
        + metrics["serve.wait_ms_per_req"]
        + forward * ledger["model_calls_per_req"]
        + ledger.get("ipc", 0.0)
        + ledger.get("prefill", 0.0)
        + ledger.get("sampling", 0.0)
    )
    ledger["parts"] = parts
    return abs(parts - ledger["client"]) / ledger["client"]


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name == "kernel.lut_over_dense":
        return "ratio"
    return "ms"
