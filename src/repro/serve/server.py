"""Serving frontends: in-process calls and a minimal JSON/HTTP surface.

:class:`Server` wires the pieces together -- a
:class:`~repro.serve.store.ModelStore` of compiled models, one
:class:`~repro.serve.pool.WorkerPool` over its own
:class:`~repro.serve.batcher.Batcher` per model -- behind a
synchronous :meth:`Server.predict`.  :meth:`Server.serve_http` exposes
the same surface over a stdlib ``http.server`` JSON API (no third-party
dependencies, matching this repo's constraint):

- ``POST /predict``  ``{"model": "name", "input": [...]}`` -> output
- ``POST /generate`` ``{"model": "name", "prompt": [ids], ...}`` ->
  streamed JSON lines, one token per event (continuous batching across
  concurrent streams; see :mod:`repro.serve.sequences`)
- ``GET /models``    registered models and versions
- ``GET /healthz``   liveness + per-model worker state + whether this
  process (and, in cluster mode, how many live workers) loaded the
  native LUT query kernel
- ``GET /metrics``   per-model serving counts (latency quantiles,
  batch sizes, LUT-amortization ratio, queue depth) as JSON; the same
  instruments as Prometheus text via ``/metrics?format=prometheus`` or
  ``Accept: text/plain``
- ``GET /trace``     retained spans as chrome://tracing trace-event
  JSON (empty unless tracing is enabled, see :mod:`repro.obs`)
- ``GET /slo``       SLO spec states and burn rates, and the models
  the cluster crash-loop breaker holds quarantined

Backpressure and SLO paging map to HTTP 429, unknown models to 404,
malformed bodies to 400, a quarantined cluster model to 503, request
timeouts to 504.  Every request gets an id; error responses carry it
(``request_id``) and each failed request logs one structured line on
the ``repro.serve`` logger, so rejected traffic is attributable
instead of silent.  With tracing enabled the id is also
the request's trace id -- paste it from a 429 into the trace file to
see exactly which queue refused it.  The HTTP layer is threaded (one
thread per connection), which is exactly what the batcher wants:
concurrent requests pile into the queue and leave as coalesced
micro-batches.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro.api.model import CompiledModel, QuantModel
from repro.engine import native
from repro.engine.native import status as native_status
from repro.obs import runtime as _obs
from repro.obs.metrics import get_registry
from repro.serve import wire
from repro.serve.batcher import Batcher, BatcherClosed, QueueFullError
from repro.serve.pool import WorkerPool
from repro.serve.sequences import GenerationStream, SequenceScheduler
from repro.serve.store import ModelNotFound, ModelStore

__all__ = ["AdmissionShedError", "ServeConfig", "Server"]

_LOG = logging.getLogger("repro.serve")


class AdmissionShedError(QueueFullError):
    """New admissions refused while an SLO is paging.

    A subclass of :class:`~repro.serve.batcher.QueueFullError` so every
    existing 429 mapping applies; carries ``retry_after_s`` so the HTTP
    layer can tell clients when to come back (``Retry-After``).
    Requests already admitted are unaffected -- live decode streams
    keep draining.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class ServeConfig:
    """Per-model serving knobs (one config applies to every model a
    server hosts).

    ``max_batch=1`` disables coalescing entirely -- every request is
    served alone, which is the baseline the throughput bench compares
    against.  ``budget_bytes`` bounds the store's resident compiled
    weight bytes (LRU eviction).

    ``cluster=True`` serves each model from a supervised **process**
    pool (:class:`repro.serve.cluster.ClusterPool`): one shared-memory
    copy of the compiled weights, ``workers`` worker processes, crash
    redelivery, and the crash-loop breaker -- a quarantined model
    answers 503 (:class:`~repro.serve.cluster.ModelUnroutableError`)
    until a probe worker survives.  ``cluster_config`` tunes the
    supervisor; ``drain_timeout_s`` bounds how long :meth:`Server.stop`
    waits for live decode streams to finish before teardown.

    ``slos`` installs a :class:`repro.obs.slo.SLOEngine` over the given
    :class:`~repro.obs.slo.SLOSpec` objectives while the server runs.
    While a spec matching a model pages, that model's new admissions
    are refused with 429 + ``Retry-After: retry_after_s`` and
    everything already admitted drains.  ``warn`` is reported on
    ``/slo`` and in the transition log line; it changes no deadline or
    admission cap.  Coalescing amortizes per-call dispatch, Python glue
    and IPC; it buys no lookup-table reuse, since BiQGEMM builds its
    tables per input column and reuses them across output rows.
    """

    workers: int = 2
    max_batch: int = 32
    max_latency_ms: float = 5.0
    max_queue: int = 256
    budget_bytes: int | None = None
    request_timeout_s: float = 30.0
    # Generation (``/generate``): live-stream admission cap per model
    # and how long a decode tick waits to coalesce more sequences.
    max_sequences: int = 16
    decode_latency_ms: float = 2.0
    # Process-pool serving (repro.serve.cluster).
    cluster: bool = False
    cluster_config: "object | None" = None  # ClusterConfig
    drain_timeout_s: float = 5.0
    # SLO alerting and paging (inert while ``slos`` is empty).
    slos: tuple = ()
    retry_after_s: float = 1.0
    slo_eval_interval_s: float = 0.25


def _retire(runtime: WorkerPool, *, drain: bool) -> None:
    """Stop a model's pool, then take its series off the scrape (a
    successor's series under the same name stay)."""
    runtime.stop(drain=drain)
    for metrics in runtime.metric_sets:
        metrics.retract(get_registry())


class Server:
    """Dynamic-batching inference server over compiled model artifacts.

    Use as a context manager or call :meth:`start` / :meth:`stop`::

        server = Server(config=ServeConfig(workers=2, max_batch=64))
        server.add_model("encoder", "encoder.npz")   # path or model
        with server:
            y = server.predict("encoder", x)
            httpd = server.serve_http(port=8000)     # optional HTTP
    """

    def __init__(
        self,
        store: ModelStore | None = None,
        *,
        config: ServeConfig | None = None,
    ):
        self.config = config or ServeConfig()
        self.store = store or ModelStore(
            budget_bytes=self.config.budget_bytes
        )
        # Budget evictions (and explicit store.evict) must also tear
        # down the serving runtime, or the evicted model keeps serving
        # and its memory never returns.  Chain rather than clobber: a
        # caller-supplied hook (or another server sharing this store)
        # keeps firing.
        self._chained_on_evict = self.store.on_evict
        self.store.on_evict = self._on_store_evict
        # Each model's runtime is its pool: the pool's metric sets are
        # in the registry under the model's name from spawn to retire.
        self._runtimes: dict[str, WorkerPool] = {}
        # Decode schedulers, created lazily on the first /generate for a
        # model (most served models have no incremental decode API).
        self._schedulers: dict[str, "SequenceScheduler"] = {}
        self._lock = threading.Lock()
        self._started = False
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        # SLO engine (None unless config.slos is non-empty).
        self._slo_engine = None

    # -- model management ----------------------------------------------
    def add_model(
        self,
        name: str,
        source: "CompiledModel | QuantModel | str | Path",
        *,
        version: int | None = None,
    ) -> None:
        """Register (or hot-swap) a model from an artifact path or an
        in-process handle.

        When the server is running, the new version's worker pool is
        started before the old one drains, so the swap drops no
        requests.
        """
        if isinstance(source, (str, Path)):
            entry = self.store.load(name, source, version=version)
        else:
            entry = self.store.add(name, source, version=version)
        with self._lock:
            started = self._started
        # Spawn (and warm) the replacement pool before unhooking the old
        # one, so a hot-swap never leaves the name unservable.
        runtime = (
            self._spawn_runtime(name, entry.compiled) if started else None
        )
        unused = old = None
        with self._lock:
            # Swap only when we actually hold a replacement: with
            # runtime=None (server looked stopped), any runtime now in
            # the map was spawned by a concurrent start() *for the entry
            # we just registered* -- popping it would leave the model
            # registered but unservable.
            if runtime is not None:
                if self._started and name in self.store:
                    old = self._runtimes.pop(name, None)
                    self._runtimes[name] = runtime
                else:
                    # stop() (or an eviction) won the race while we were
                    # warming the pool; don't resurrect a runtime nothing
                    # will ever tear down.
                    unused = runtime
        if unused is not None:
            _retire(unused, drain=False)
        if old is not None:
            # Drain: requests already queued on the old version finish
            # on it; new requests are already routed to the new pool,
            # whose series replaced the old ones at spawn (from zero).
            _retire(old, drain=True)
        if runtime is not None or unused is not None:
            # A hot-swap retires the old version's decode scheduler too
            # (its KV arena and worker belong to the old model); the
            # next /generate lazily builds one on the new version.
            self._stop_scheduler(name)

    def _on_store_evict(self, name: str) -> None:
        with self._lock:
            runtime = self._runtimes.pop(name, None)
        if runtime is not None:
            _retire(runtime, drain=True)
        self._stop_scheduler(name)
        if self._chained_on_evict is not None:
            self._chained_on_evict(name)

    def _stop_scheduler(self, name: str) -> None:
        with self._lock:
            scheduler = self._schedulers.pop(name, None)
        if scheduler is not None:
            engine = self._slo_engine
            if engine is not None:
                engine.detach_gen_source(name)
            scheduler.stop()
            scheduler.metrics.retract(get_registry())

    def _spawn_runtime(
        self, name: str, compiled: CompiledModel
    ) -> WorkerPool:
        batcher = Batcher(
            max_batch=self.config.max_batch,
            max_latency_ms=self.config.max_latency_ms,
            max_queue=self.config.max_queue,
        )
        if self.config.cluster:
            from repro.serve.cluster import ClusterPool

            pool = ClusterPool(
                compiled,
                batcher,
                workers=self.config.workers,
                name=name,
                config=self.config.cluster_config,
            )
        else:
            pool = WorkerPool(
                compiled, batcher, workers=self.config.workers, name=name
            )
        pool.start()
        # Published fresh: on a hot-swap these replace the old
        # version's series, so the scrape restarts from zero.
        for metrics in pool.metric_sets:
            metrics.publish(get_registry(), model=name)
        return pool

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Server":
        """Spin up a worker pool for every registered model."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            for meta in self.store.models():
                name = meta["name"]
                self._runtimes[name] = self._spawn_runtime(
                    name, self.store.get(name)
                )
        get_registry().register_collector(self.store.collect_metrics)
        if self.config.slos and self._slo_engine is None:
            from repro.obs import slo as slo_mod

            engine = slo_mod.SLOEngine(
                self.config.slos,
                eval_interval_s=self.config.slo_eval_interval_s,
            )
            engine.subscribe(self._on_slo_transition)
            slo_mod.set_engine(engine)  # flips runtime.SLO on
            self._slo_engine = engine
            engine.start()
        return self

    def stop(self) -> None:
        """Drain, then close -- strictly in that order.

        In-flight work finishes before anything it depends on is torn
        down: live decode streams get up to ``drain_timeout_s`` to run
        their remaining ticks (the HTTP listener stays up so their
        consumers keep reading), *then* the listener stops, *then*
        schedulers and worker pools -- and, in cluster mode, the shared
        model segment is unlinked only after every worker process has
        exited.  Closing the listener first (the old order) killed
        streams mid-token on SIGTERM.
        """
        with self._lock:
            schedulers_snapshot = dict(self._schedulers)
        deadline = time.monotonic() + self.config.drain_timeout_s
        for scheduler in schedulers_snapshot.values():
            while scheduler.active() and time.monotonic() < deadline:
                time.sleep(0.02)
        self.stop_http()
        engine, self._slo_engine = self._slo_engine, None
        if engine is not None:
            from repro.obs import slo as slo_mod

            engine.stop()
            if slo_mod.get_engine() is engine:
                slo_mod.clear_engine()  # flips runtime.SLO off
        with self._lock:
            runtimes, self._runtimes = dict(self._runtimes), {}
            schedulers, self._schedulers = dict(self._schedulers), {}
            self._started = False
        for scheduler in schedulers.values():
            scheduler.stop()
            scheduler.metrics.retract(get_registry())
        for runtime in runtimes.values():
            _retire(runtime, drain=True)
        get_registry().unregister_collector(self.store.collect_metrics)

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- SLO paging ----------------------------------------------------
    def _on_slo_transition(self, spec, old: str, new: str) -> None:
        """SLOEngine listener (evaluator thread): log the transition
        with the server-wide mode, the *worst* current spec state."""
        _LOG.warning(
            json.dumps(
                {
                    "event": "slo_transition",
                    "slo": spec.name,
                    "from": old,
                    "to": new,
                    "mode": self.slo_mode,
                },
                sort_keys=True,
            )
        )

    def _check_admission(self, name: str) -> None:
        """Shed new work while any SLO matching *name* is paging.

        Only rejects *admissions*: requests already queued and decode
        streams already live drain normally, which is what lets the
        burn rate actually recover.  A quarantined model answers 503
        first, even while paging: no client pacing makes a
        crash-looping pool routable.
        """
        self._routable(name)
        engine = self._slo_engine
        if engine is not None and engine.state(name) == "page":
            raise AdmissionShedError(
                f"model {name!r} is shedding load (SLO page); retry "
                f"after {self.config.retry_after_s:g}s",
                retry_after_s=self.config.retry_after_s,
            )

    @property
    def slo_mode(self) -> str:
        """The server-wide SLO mode: the worst spec state, or ``"ok"``
        with no SLOs installed."""
        engine = self._slo_engine
        return "ok" if engine is None else engine.worst_state()

    def slo(self) -> dict:
        """The ``GET /slo`` payload: every spec's state and burn rates,
        and the models the cluster crash-loop breaker holds
        quarantined (model -> reason)."""
        engine = self._slo_engine
        body = (
            {"enabled": False, "specs": []}
            if engine is None
            else engine.snapshot()
        )
        with self._lock:
            runtimes = dict(self._runtimes)
        reasons = {name: r.quarantined for name, r in runtimes.items()}
        body["quarantined"] = {
            name: reason
            for name, reason in sorted(reasons.items())
            if reason is not None
        }
        return body

    # -- serving -------------------------------------------------------
    def _routable(self, name: str) -> WorkerPool:
        """The model's runtime, refusing with
        :class:`~repro.serve.cluster.ModelUnroutableError` (503) while
        the cluster crash-loop breaker holds it quarantined."""
        runtime = self._runtime(name)
        reason = runtime.quarantined
        if reason is not None:
            from repro.serve.cluster import ModelUnroutableError

            raise ModelUnroutableError(
                f"model {name!r} is quarantined ({reason})"
            )
        return runtime

    def _runtime(self, name: str) -> WorkerPool:
        with self._lock:
            if not self._started:
                raise RuntimeError(
                    "server is not started; call start() or use it as a "
                    "context manager"
                )
            runtime = self._runtimes.get(name)
        if runtime is None:
            # Raises ModelNotFound with the known-names message if the
            # store has no such model either.
            self.store.get(name)
            raise ModelNotFound(
                f"model {name!r} is registered but has no runtime"
            )
        return runtime

    def predict(
        self,
        name: str,
        x: np.ndarray,
        *,
        timeout: float | None = None,
        request_id: str | None = None,
    ) -> np.ndarray:
        """Serve one request through the model's dynamic batcher.

        *x* is a single request (no batch axis -- e.g. ``(features,)``
        for an MLP, ``(seq, dim)`` for an encoder); the batcher stacks
        compatible concurrent requests and splits the outputs back.
        Raises :class:`~repro.serve.batcher.QueueFullError` under
        backpressure and :class:`~repro.serve.store.ModelNotFound` for
        unknown names.

        Every request carries an id (*request_id*, generated when not
        given).  A failing request logs one structured line on the
        ``repro.serve`` logger and the raised exception carries the id
        as ``exc.request_id``; with tracing enabled the id is also the
        trace id of the request's ``serve.admit`` span tree.
        """
        if timeout is None:
            timeout = self.config.request_timeout_s
        rid = request_id or uuid.uuid4().hex[:16]
        try:
            if _obs.SLO:
                self._check_admission(name)
            if _obs.TRACING:
                from repro.obs.trace import span

                with span("serve.admit", trace_id=rid, model=name):
                    return self._submit(name, x, timeout, request_id=rid)
            return self._submit(name, x, timeout, request_id=rid)
        except BaseException as exc:
            # Attribute the failure: the id rides on the exception (the
            # HTTP layer echoes it in the error body) and one
            # structured log line records what was refused and why.
            try:
                exc.request_id = rid
            except AttributeError:  # exceptions with __slots__
                pass
            _LOG.warning(
                json.dumps(
                    {
                        "event": "request_failed",
                        "model": name,
                        "request_id": rid,
                        "error": type(exc).__name__,
                        "detail": str(exc),
                    },
                    sort_keys=True,
                )
            )
            raise

    def _scheduler(self, name: str) -> SequenceScheduler:
        """The model's decode scheduler, created on first use."""
        with self._lock:
            if not self._started:
                raise RuntimeError(
                    "server is not started; call start() or use it as a "
                    "context manager"
                )
            scheduler = self._schedulers.get(name)
        if scheduler is not None:
            return scheduler
        candidate = SequenceScheduler(
            self._runtime(name).decode_target(),
            max_sequences=self.config.max_sequences,
            max_latency_ms=self.config.decode_latency_ms,
            name=name,
        )
        with self._lock:
            scheduler = self._schedulers.get(name)
            if scheduler is None and self._started and name in self.store:
                scheduler = self._schedulers[name] = candidate.start()
                candidate.metrics.publish(get_registry(), model=name)
        if scheduler is not candidate:
            candidate.stop()
        if scheduler is None:
            raise BatcherClosed(f"model {name!r} is shutting down")
        engine = self._slo_engine
        if scheduler is candidate and engine is not None:
            # tokens_per_s specs rate this model's decode counters.
            engine.attach_gen_source(name, scheduler.metrics.sample)
        return scheduler

    def generate(
        self,
        name: str,
        prompt,
        max_new_tokens: int,
        **kwargs,
    ) -> GenerationStream:
        """Open a continuously-batched decode stream on *name*.

        Keyword arguments are :meth:`SequenceScheduler.generate`'s
        (``temperature``, ``top_k``, ``seed``, ``eos_id``,
        ``deadline_s``).  Iterate the returned
        :class:`~repro.serve.sequences.GenerationStream` for token ids;
        concurrent streams on one model coalesce into shared decode
        ticks.  Raises :class:`~repro.serve.batcher.QueueFullError`
        once ``max_sequences`` streams are live,
        :class:`AdmissionShedError` while a matching SLO is paging and
        :class:`~repro.serve.cluster.ModelUnroutableError` while the
        model is quarantined.
        """
        if _obs.SLO:
            self._check_admission(name)
        return self._scheduler(name).generate(
            prompt, max_new_tokens, **kwargs
        )

    def _submit(
        self,
        name: str,
        x: np.ndarray,
        timeout: float,
        *,
        request_id: str | None = None,
    ) -> np.ndarray:
        from repro.resilience import faults as _faults
        from repro.serve.cluster import ModelUnroutableError

        if _faults.ACTIVE:
            _faults.fire("serve.submit")
        # A hot-swap can seal the runtime we just resolved (between the
        # lookup and the submit); re-resolve and retry -- the new pool
        # is installed before the old one seals, so one retry suffices
        # (bounded anyway in case the server is stopping for real).
        for _ in range(3):
            # Refuse unroutable work up front instead of queueing it.
            runtime = self._routable(name)
            try:
                return runtime.batcher.submit(
                    x, timeout, request_id=request_id
                )
            except ModelUnroutableError:
                # Quarantine tripped while we were queued: a retry
                # loop cannot outwait a crash-looping pool.
                raise
            except BatcherClosed:
                continue
        raise BatcherClosed(
            f"model {name!r} is shutting down and admits no requests"
        )

    # -- observability -------------------------------------------------
    def models(self) -> list[dict]:
        return self.store.models()

    def metrics(self) -> dict:
        """Telemetry snapshot per model plus store-level counters."""
        with self._lock:
            runtimes = dict(self._runtimes)
            schedulers = dict(self._schedulers)
        models = {}
        for name, runtime in sorted(runtimes.items()):
            snapshot = runtime.batcher.metrics.snapshot()
            cluster_stats = runtime.cluster_stats()
            if cluster_stats is not None:
                snapshot["cluster"] = cluster_stats
            scheduler = schedulers.get(name)
            if scheduler is not None:
                snapshot["generation"] = scheduler.metrics.snapshot()
            models[name] = snapshot
        return {
            "models": models,
            "store": {
                "models": len(self.store),
                "resident_bytes": self.store.total_bytes(),
                "evictions": self.store.evictions,
            },
            "obs": {
                "tracing": _obs.TRACING,
                "drift": _obs.DRIFT,
                "slo": _obs.SLO,
                "profiling": _obs.PROFILING,
                "slo_mode": self.slo_mode,
            },
        }

    def healthz(self) -> dict:
        with self._lock:
            runtimes = dict(self._runtimes)
            started = self._started
        workers = {
            name: runtime.running for name, runtime in runtimes.items()
        }
        ok = started and all(workers.values())
        out = {
            "status": "ok" if ok else "unavailable",
            "started": started,
            "models": len(runtimes),
            "workers_alive": workers,
            "native_kernel": native_status(),
        }
        cluster = {}
        for name, runtime in runtimes.items():
            stats = runtime.cluster_stats()
            if stats is None:
                continue
            cluster[name] = {
                "alive": sum(1 for w in stats["workers"] if w["alive"]),
                "workers": len(stats["workers"]),
                "quarantined": stats["quarantined"],
                # Live workers serving through the native LUT kernel;
                # the rest take the numpy fallback.
                "native_kernel": sum(
                    1 for w in stats["workers"] if w["native_kernel"]
                ),
            }
        if cluster:
            out["cluster"] = cluster
            if any(c["quarantined"] for c in cluster.values()):
                out["status"] = "degraded" if ok else out["status"]
        return out

    # -- HTTP frontend ---------------------------------------------------
    def serve_http(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        block: bool = False,
    ) -> ThreadingHTTPServer:
        """Expose this server over HTTP (``port=0`` picks a free port).

        Non-blocking by default: the listener runs on a daemon thread
        and is torn down by :meth:`stop` / :meth:`stop_http`.  With
        ``block=True`` the call runs the listener in the calling thread
        until interrupted.
        """
        self.start()
        # The /predict JSON codec lives in the native library: load (or
        # build, ~3 s cold) it now, not inside the first request.
        native.load()
        handler = _make_handler(self)
        with self._lock:
            if self._httpd is not None:
                raise RuntimeError("HTTP frontend is already running")
            httpd = _ThreadingServer((host, port), handler)
            self._httpd = httpd
            if not block:
                thread = threading.Thread(
                    target=httpd.serve_forever,
                    name="repro-serve-http",
                    daemon=True,
                )
                self._http_thread = thread
                thread.start()
        if block:
            try:
                httpd.serve_forever()
            finally:
                # Full drain-then-close shutdown: SIGTERM/Ctrl-C must
                # let in-flight decode ticks finish before the pools
                # (and any shared-memory segments) go away.
                self.stop()
        return httpd

    def stop_http(self) -> None:
        with self._lock:
            httpd, self._httpd = self._httpd, None
            thread, self._http_thread = self._http_thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# the JSON/HTTP handler
# ----------------------------------------------------------------------
class _ThreadingServer(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default listen backlog of 5 resets connections the
    # moment a burst of concurrent clients arrives -- the exact traffic
    # shape the batcher exists for.
    request_queue_size = 128


_MAX_BODY_BYTES = 64 * 1024 * 1024


def _make_handler(server: Server):
    class Handler(BaseHTTPRequestHandler):
        # Serving logs belong to telemetry, not stderr.
        def log_message(self, *args) -> None:
            del args

        def _reply(
            self, status: int, payload: dict, headers: dict | None = None
        ) -> None:
            self._send(status, json.dumps(payload).encode("utf-8"), headers)

        def _send(
            self, status: int, body: bytes, headers: dict | None = None
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)

        def _reply_text(self, status: int, text: str, content_type: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, exc: BaseException, rid: str) -> None:
            """Error reply carrying the request's trace/request id.

            A shed admission (SLO page) additionally tells the client
            when to retry: 429 + ``Retry-After`` is the contract load
            balancers and well-behaved clients back off on.
            """
            message = (
                f"{type(exc).__name__}: {exc}" if status == 500 else str(exc)
            )
            headers = None
            if isinstance(exc, AdmissionShedError):
                headers = {
                    "Retry-After": str(
                        max(1, int(round(exc.retry_after_s)))
                    )
                }
            self._reply(
                status, {"error": message, "request_id": rid}, headers
            )

        def do_GET(self) -> None:  # noqa: N802 -- BaseHTTPRequestHandler API
            path, _, query = self.path.partition("?")
            if path == "/healthz":
                health = server.healthz()
                status = 200 if health["status"] == "ok" else 503
                self._reply(status, health)
            elif path == "/models":
                self._reply(200, {"models": server.models()})
            elif path == "/metrics":
                accept = self.headers.get("Accept", "")
                if "format=prometheus" in query or (
                    "text/plain" in accept or "openmetrics" in accept
                ):
                    self._reply_text(
                        200,
                        get_registry().to_prometheus(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    self._reply(200, server.metrics())
            elif path == "/trace":
                from repro.obs.trace import get_tracer

                self._reply(200, get_tracer().trace_events())
            elif path == "/slo":
                self._reply(200, server.slo())
            elif path == "/profile":
                from repro.obs.profile import get_profiler

                profiler = get_profiler()
                text = "" if profiler is None else profiler.folded()
                self._reply_text(
                    200,
                    text + "\n" if text else "",
                    "text/plain; charset=utf-8",
                )
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802
            if self.path == "/generate":
                self._do_generate()
                return
            if self.path != "/predict":
                self._reply(404, {"error": f"unknown path {self.path!r}"})
                return
            rid = uuid.uuid4().hex[:16]
            try:
                request = wire.decode_predict(self._read_body())
            except ValueError as exc:
                self._reply(400, {"error": str(exc), "request_id": rid})
                return
            try:
                output = server.predict(
                    request["model"], request["x"], request_id=rid
                )
            except ModelNotFound as exc:
                self._error(404, exc, rid)
            except QueueFullError as exc:
                self._error(429, exc, rid)
            except BatcherClosed as exc:
                self._error(503, exc, rid)
            except TimeoutError as exc:
                self._error(504, exc, rid)
            except (ValueError, TypeError) as exc:
                self._error(400, exc, rid)
            except Exception as exc:  # noqa: BLE001 -- HTTP boundary
                self._error(500, exc, rid)
            else:
                self._send(
                    200, wire.encode_predict(request["model"], output, rid)
                )

        def _do_generate(self) -> None:
            """Streaming decode: JSON-lines, one event per token.

            The response carries no Content-Length -- each generated
            token is written (and flushed) as one
            ``{"token": ..., "index": ...}`` line the moment its decode
            tick resolves, followed by a final ``{"done": true, ...}``
            line; the connection closing delimits the body.  A client
            that disconnects mid-stream cancels its sequence (the next
            write raises, the stream is closed, its KV blocks return to
            the arena) without touching the other coalesced sequences.
            """
            rid = uuid.uuid4().hex[:16]
            try:
                request = wire.decode_generate(self._read_body())
            except ValueError as exc:
                self._reply(400, {"error": str(exc), "request_id": rid})
                return
            name = request.pop("model")
            try:
                stream = server.generate(name, **request)
            except ModelNotFound as exc:
                self._error(404, exc, rid)
                return
            except QueueFullError as exc:
                self._error(429, exc, rid)
                return
            except (BatcherClosed, RuntimeError) as exc:
                self._error(503, exc, rid)
                return
            except (ValueError, TypeError) as exc:
                self._error(400, exc, rid)
                return
            except Exception as exc:  # noqa: BLE001 -- HTTP boundary
                self._error(500, exc, rid)
                return
            # Everything past admission runs inside ``with stream`` --
            # including the header writes: a client that disconnects
            # before the first byte lands must still cancel its
            # sequence, or the stream stays live forever and
            # GenMetrics' busy clock never stops.
            try:
                with stream:
                    self.send_response(200)
                    self.send_header("Content-Type", "application/jsonl")
                    self.send_header("X-Request-Id", rid)
                    self.end_headers()
                    for index, token in enumerate(stream):
                        self._write_event(
                            {"token": int(token), "index": index}
                        )
                    self._write_event(
                        {
                            "done": True,
                            "finish_reason": stream.finish_reason,
                            "tokens": len(stream.tokens),
                            "request_id": rid,
                        }
                    )
            except (BrokenPipeError, ConnectionError, OSError):
                # Client went away: the ``with`` already cancelled the
                # sequence; nothing useful left to send.
                pass
            except Exception as exc:  # noqa: BLE001 -- HTTP boundary
                try:
                    self._write_event(
                        {
                            "error": f"{type(exc).__name__}: {exc}",
                            "request_id": rid,
                        }
                    )
                except OSError:
                    pass

        def _write_event(self, event: dict) -> None:
            self.wfile.write(json.dumps(event).encode("utf-8") + b"\n")
            self.wfile.flush()

        def _read_body(self) -> bytes:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                raise ValueError("request body is required")
            if length > _MAX_BODY_BYTES:
                raise ValueError("request body too large")
            return self.rfile.read(length)

    return Handler
