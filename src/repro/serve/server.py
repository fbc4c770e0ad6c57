"""Serving frontends: in-process calls and a minimal JSON/HTTP surface.

:class:`Server` wires the pieces together -- a
:class:`~repro.serve.store.ModelStore` of compiled models, one
:class:`~repro.serve.batcher.Batcher` +
:class:`~repro.serve.pool.WorkerPool` runtime per model -- behind a
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
- ``GET /metrics``   telemetry snapshots (latency quantiles, batch
  sizes, LUT-amortization ratio, queue depth); Prometheus text
  exposition via ``/metrics?format=prometheus`` or ``Accept:
  text/plain``
- ``GET /trace``     retained spans as chrome://tracing trace-event
  JSON (empty unless tracing is enabled, see :mod:`repro.obs`)

Backpressure maps to HTTP 429, unknown models to 404, malformed bodies
to 400, request timeouts to 504.  Every request gets an id; error
responses carry it (``request_id``) and each failed request logs one
structured line on the ``repro.serve`` logger, so rejected traffic is
attributable instead of silent.  With tracing enabled the id is also
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
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro.api.model import CompiledModel, QuantModel
from repro.engine.native import status as native_status
from repro.obs import runtime as _obs
from repro.serve.batcher import Batcher, BatcherClosed, QueueFullError
from repro.serve.pool import WorkerPool
from repro.serve.sequences import GenerationStream, SequenceScheduler
from repro.serve.store import ModelNotFound, ModelStore
from repro.serve.telemetry import ModelTelemetry

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
    :class:`~repro.obs.slo.SLOSpec` objectives while the server runs,
    and subscribes the server for graceful degradation: on ``warn``
    decode admissions shrink by ``degrade_sequences_factor`` and every
    batcher's coalescing deadline is multiplied by
    ``degrade_deadline_factor`` -- BiQGEMM's LUT builds amortize across
    a coalesced batch, so under pressure the profitable move is
    *bigger* batches, not faster ones; on ``page`` new admissions are
    refused with 429 + ``Retry-After: retry_after_s`` while everything
    already admitted drains.
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
    # SLO-driven degradation (inert while ``slos`` is empty).
    slos: tuple = ()
    degrade_sequences_factor: float = 0.5
    degrade_deadline_factor: float = 4.0
    retry_after_s: float = 1.0
    slo_eval_interval_s: float = 0.25


@dataclass
class _ModelRuntime:
    """The per-model serving machinery."""

    batcher: Batcher
    pool: WorkerPool
    telemetry: ModelTelemetry = field(init=False)

    def __post_init__(self) -> None:
        self.telemetry = self.batcher.telemetry


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
        self._runtimes: dict[str, _ModelRuntime] = {}
        # Decode schedulers, created lazily on the first /generate for a
        # model (most served models have no incremental decode API).
        self._schedulers: dict[str, "SequenceScheduler"] = {}
        self._lock = threading.Lock()
        self._started = False
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        # Pull-style publisher into the unified metrics registry
        # (repro.obs.metrics): registered while the server runs, so a
        # scrape sees per-model serving series without the hot path
        # pushing anything.
        self._metrics_collector = None
        # SLO engine (None unless config.slos is non-empty) and the
        # degradation mode its transitions drive.  _slo_mode is read
        # unlocked on the admission path (a stale read costs one
        # request admitted/refused a beat late, never corruption).
        self._slo_engine = None
        self._slo_mode = "ok"

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
            unused.pool.stop()
        if old is not None:
            # Drain: requests already queued on the old version finish
            # on it; new requests are already routed to the new pool.
            old.pool.stop(drain=True)
            # The new runtime's telemetry restarts from zero; its
            # metric series must too (counters never go backwards).
            self._prune_model_metrics(name)
        if runtime is not None or unused is not None:
            # A hot-swap retires the old version's decode scheduler too
            # (its KV arena and worker belong to the old model); the
            # next /generate lazily builds one on the new version.
            self._stop_scheduler(name)

    def _on_store_evict(self, name: str) -> None:
        with self._lock:
            runtime = self._runtimes.pop(name, None)
        if runtime is not None:
            runtime.pool.stop(drain=True)
            self._prune_model_metrics(name)
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

    def _prune_model_metrics(self, name: str) -> None:
        """Drop *name*'s series from the metrics registry (teardown /
        hot-swap): a scrape must not report a model that no longer
        serves, and a successor's fresh counters must not collide with
        the predecessor's totals."""
        from repro.obs.metrics import get_registry

        get_registry().prune(model=name)

    def _publish_metrics(self, registry) -> None:
        """Collector: copy serving telemetry into the unified registry.

        Runs at scrape time (``MetricsRegistry.collect``).  Histograms
        are adopted live (no copying); counters/gauges mirror the
        telemetry totals.
        """
        with self._lock:
            runtimes = dict(self._runtimes)
        for name, runtime in sorted(runtimes.items()):
            telemetry = runtime.telemetry
            registry.register_histogram(
                "repro_serve_latency_seconds",
                telemetry.latency,
                "request latency, submit to result",
                model=name,
            )
            registry.register_histogram(
                "repro_serve_queue_depth",
                telemetry.queue_depth,
                "queue depth sampled at admission",
                model=name,
            )
            counters = (
                ("requests", telemetry.requests, "requests admitted"),
                ("served", telemetry.served, "requests completed ok"),
                ("errors", telemetry.errors, "requests failed"),
                ("rejected", telemetry.rejected, "requests refused at admission"),
                ("cancelled", telemetry.cancelled, "requests abandoned in queue"),
                ("batches", telemetry.batches, "model executions"),
            )
            for metric, value, help_text in counters:
                registry.counter(
                    f"repro_serve_{metric}_total", help_text, model=name
                ).set(value)
            registry.gauge(
                "repro_serve_lut_amortization_ratio",
                "requests served per model execution (mean effective "
                "batch)",
                model=name,
            ).set(telemetry.amortization_ratio)
            registry.gauge(
                "repro_serve_queue_pending",
                "requests currently queued",
                model=name,
            ).set(runtime.batcher.pending())
            cluster_stats = getattr(runtime.pool, "cluster_stats", None)
            if cluster_stats is not None:
                stats = cluster_stats()
                cluster_counters = (
                    ("spawns", "worker processes started"),
                    ("deaths", "worker processes that died"),
                    ("respawns", "workers replaced after a death"),
                    ("kills", "workers killed by escalation"),
                    ("quarantines", "crash-loop breaker trips"),
                    ("releases", "breaker releases (probe survived)"),
                    ("redelivered", "in-flight requests retried after "
                                    "a worker death"),
                    ("hedges", "batch-1 requests hedged to a second "
                               "worker"),
                    ("hedge_wins", "hedged requests won by the hedge"),
                )
                for metric, help_text in cluster_counters:
                    registry.counter(
                        f"repro_cluster_{metric}_total",
                        help_text,
                        model=name,
                    ).set(stats[metric])
                registry.gauge(
                    "repro_cluster_workers_alive",
                    "live worker processes",
                    model=name,
                ).set(sum(1 for w in stats["workers"] if w["alive"]))
                registry.gauge(
                    "repro_cluster_quarantined",
                    "1 while the crash-loop breaker holds the model "
                    "unroutable",
                    model=name,
                ).set(1.0 if stats["quarantined"] else 0.0)
                registry.gauge(
                    "repro_cluster_shared_bytes",
                    "bytes of the shared-memory model segment",
                    model=name,
                ).set(stats["shared_bytes"])
        with self._lock:
            schedulers = dict(self._schedulers)
        for name, scheduler in sorted(schedulers.items()):
            gen = scheduler.telemetry
            registry.register_histogram(
                "repro_gen_inter_token_seconds",
                gen.inter_token,
                "time between consecutive streamed tokens",
                model=name,
            )
            registry.register_histogram(
                "repro_gen_prefill_seconds",
                gen.prefill,
                "prompt prefill latency",
                model=name,
            )
            registry.register_histogram(
                "repro_gen_tick_seconds",
                gen.tick_latency,
                "batched decode execution latency (one gen.step tick)",
                model=name,
            )
            gen_counters = (
                ("tokens", gen.tokens, "tokens decoded"),
                ("sequences", gen.sequences, "sequences admitted"),
                ("completed", gen.completed, "sequences finished"),
                ("cancelled", gen.cancelled, "sequences cancelled mid-stream"),
                ("deadline_expired", gen.deadline_expired,
                 "sequences past their deadline"),
                ("rejected", gen.rejected, "sequences refused at admission"),
                ("ticks", gen.ticks, "batched decode executions"),
            )
            for metric, value, help_text in gen_counters:
                registry.counter(
                    f"repro_gen_{metric}_total", help_text, model=name
                ).set(value)
            registry.gauge(
                "repro_gen_tokens_per_s",
                "decode throughput over busy wall time, all sequences",
                model=name,
            ).set(gen.tokens_per_s)
            registry.gauge(
                "repro_gen_coalescing_ratio",
                "tokens decoded per batched execution (mean decode batch)",
                model=name,
            ).set(gen.coalescing_ratio)
            registry.gauge(
                "repro_gen_sequences_live",
                "decode streams currently live",
                model=name,
            ).set(scheduler.active())
        registry.gauge(
            "repro_store_models", "compiled models resident in the store"
        ).set(len(self.store))
        registry.gauge(
            "repro_store_resident_bytes",
            "compiled weight bytes resident in the store",
        ).set(self.store.total_bytes())
        registry.counter(
            "repro_store_evictions_total", "models evicted by the budget"
        ).set(self.store.evictions)

    def _spawn_runtime(
        self, name: str, compiled: CompiledModel
    ) -> _ModelRuntime:
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
                on_quarantine=(
                    lambda reason, _name=name: self._on_pool_quarantine(
                        _name, reason
                    )
                ),
                on_release=(
                    lambda _name=name: self._on_pool_release(_name)
                ),
            )
        else:
            pool = WorkerPool(
                compiled, batcher, workers=self.config.workers, name=name
            )
        pool.start()
        return _ModelRuntime(batcher=batcher, pool=pool)

    def _on_pool_quarantine(self, name: str, reason: str) -> None:
        """Supervisor crash-loop breaker tripped: route through the
        *existing* SLO shed machinery -- the model pages, `/slo` shows
        why, and :meth:`_check_admission` refuses new work with 503."""
        _LOG.error(
            json.dumps(
                {"event": "model_quarantined", "model": name,
                 "reason": reason},
                sort_keys=True,
            )
        )
        engine = self._slo_engine
        if engine is not None:
            engine.quarantine(name, reason=reason)

    def _on_pool_release(self, name: str) -> None:
        _LOG.warning(
            json.dumps(
                {"event": "model_released", "model": name}, sort_keys=True
            )
        )
        engine = self._slo_engine
        if engine is not None:
            engine.release(name)

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
        from repro.obs.metrics import get_registry

        self._metrics_collector = self._publish_metrics
        get_registry().register_collector(self._metrics_collector)
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
            self._slo_mode = "ok"
        with self._lock:
            runtimes, self._runtimes = dict(self._runtimes), {}
            schedulers, self._schedulers = dict(self._schedulers), {}
            self._started = False
        for scheduler in schedulers.values():
            scheduler.stop()
        for runtime in runtimes.values():
            runtime.pool.stop(drain=True)
        if self._metrics_collector is not None:
            from repro.obs.metrics import get_registry

            get_registry().unregister_collector(self._metrics_collector)
            self._metrics_collector = None
        for name in runtimes:
            self._prune_model_metrics(name)

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- SLO-driven degradation ----------------------------------------
    def _on_slo_transition(self, spec, old: str, new: str) -> None:
        """SLOEngine listener (evaluator thread): re-derive the
        degradation mode from the *worst* current spec state -- one
        spec recovering must not undo the degradation another spec
        still demands."""
        engine = self._slo_engine
        if engine is None:
            return
        mode = engine.worst_state()
        self._apply_degradation(mode)
        _LOG.warning(
            json.dumps(
                {
                    "event": "slo_transition",
                    "slo": spec.name,
                    "from": old,
                    "to": new,
                    "mode": mode,
                },
                sort_keys=True,
            )
        )

    def _apply_degradation(self, mode: str) -> None:
        """Degrade (or restore) every runtime to match *mode*.

        ``warn``/``page``: decode admission caps shrink and batcher
        deadlines stretch -- with the queue backing up anyway, waiting
        a few more ms buys bigger coalesced batches, and each LUT
        build amortizes across more requests (the paper's batch
        economics, used as a pressure-relief valve).  ``ok`` restores
        the configured values.  Idempotent per mode.
        """
        cfg = self.config
        if mode == "ok":
            deadline_ms = cfg.max_latency_ms
            max_seqs = cfg.max_sequences
        else:
            deadline_ms = cfg.max_latency_ms * cfg.degrade_deadline_factor
            max_seqs = max(
                1, int(cfg.max_sequences * cfg.degrade_sequences_factor)
            )
        with self._lock:
            self._slo_mode = mode
            runtimes = dict(self._runtimes)
            schedulers = dict(self._schedulers)
        for runtime in runtimes.values():
            runtime.batcher.set_max_latency(deadline_ms)
        for scheduler in schedulers.values():
            scheduler.set_max_sequences(max_seqs)

    def _check_admission(self, name: str) -> None:
        """Shed new work while any SLO matching *name* is paging.

        Only rejects *admissions*: requests already queued and decode
        streams already live drain normally, which is what lets the
        burn rate actually recover.

        A *quarantined* model (cluster crash-loop breaker) outranks a
        paging one: it is refused with 503
        (:class:`~repro.serve.cluster.ModelUnroutableError`, "the
        server is broken") rather than 429 ("you are sending too
        much"), because no client pacing will make a crash-looping
        pool routable.
        """
        engine = self._slo_engine
        if engine is None:
            return
        reason = engine.quarantined(name)
        if reason is not None:
            from repro.serve.cluster import ModelUnroutableError

            raise ModelUnroutableError(
                f"model {name!r} is quarantined ({reason})"
            )
        if engine.state(name) == "page":
            raise AdmissionShedError(
                f"model {name!r} is shedding load (SLO page); retry "
                f"after {self.config.retry_after_s:g}s",
                retry_after_s=self.config.retry_after_s,
            )

    @property
    def slo_mode(self) -> str:
        """The server-wide degradation mode (worst spec state)."""
        return self._slo_mode

    # -- serving -------------------------------------------------------
    def _runtime(self, name: str) -> _ModelRuntime:
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
        compiled = self.store.get(name)  # raises ModelNotFound
        if self.config.cluster and all(
            getattr(compiled.model, attr, None) is not None
            for attr in ("init_cache", "prefill", "step_many", "embedding")
        ):
            # Decode against the worker processes: sequences pin their
            # KV to a worker and survive its death by re-prefill (see
            # ClusterCompiled).  Non-decode models keep the local
            # compiled handle so the scheduler's type check still
            # explains what is missing.
            from repro.serve.cluster import ClusterCompiled

            compiled = ClusterCompiled(self._runtime(name).pool)
        candidate = SequenceScheduler(
            compiled,
            max_sequences=self.config.max_sequences,
            max_latency_ms=self.config.decode_latency_ms,
            name=name,
        )
        with self._lock:
            scheduler = self._schedulers.get(name)
            if scheduler is None and self._started and name in self.store:
                scheduler = self._schedulers[name] = candidate.start()
        if scheduler is not candidate:
            candidate.stop()
        if scheduler is None:
            raise BatcherClosed(f"model {name!r} is shutting down")
        engine = self._slo_engine
        if scheduler is candidate and engine is not None:
            # tokens_per_s specs rate this model's decode counters; a
            # scheduler born into a degraded server starts degraded.
            engine.attach_gen_source(name, scheduler.telemetry)
            mode = self._slo_mode
            if mode != "ok":
                scheduler.set_max_sequences(
                    max(
                        1,
                        int(
                            self.config.max_sequences
                            * self.config.degrade_sequences_factor
                        ),
                    )
                )
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
        once ``max_sequences`` streams are live and
        :class:`AdmissionShedError` while a matching SLO is paging.
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
            runtime = self._runtime(name)
            # Cluster crash-loop breaker, checked here (not just in
            # _check_admission) so a server without SLOs still refuses
            # unroutable work up front instead of queueing it.
            reason = getattr(runtime.pool, "quarantined", None)
            if reason is not None:
                raise ModelUnroutableError(
                    f"model {name!r} is quarantined ({reason})"
                )
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
            snapshot = runtime.telemetry.snapshot()
            cluster_stats = getattr(runtime.pool, "cluster_stats", None)
            if cluster_stats is not None:
                snapshot["cluster"] = cluster_stats()
            scheduler = schedulers.get(name)
            if scheduler is not None:
                snapshot["generation"] = scheduler.telemetry.snapshot()
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
                "slo_mode": self._slo_mode,
            },
        }

    def healthz(self) -> dict:
        with self._lock:
            runtimes = dict(self._runtimes)
            started = self._started
        workers = {
            name: runtime.pool.running for name, runtime in runtimes.items()
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
            stats_fn = getattr(runtime.pool, "cluster_stats", None)
            if stats_fn is None:
                continue
            stats = stats_fn()
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
            body = json.dumps(payload).encode("utf-8")
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
                    from repro.obs.metrics import get_registry

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
                from repro.obs import slo as slo_mod

                engine = slo_mod.get_engine()
                if engine is None:
                    self._reply(200, {"enabled": False, "specs": []})
                else:
                    self._reply(200, engine.snapshot())
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
                request = self._read_request()
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
                self._reply(
                    200,
                    {
                        "model": request["model"],
                        "output": np.asarray(output).tolist(),
                        "shape": list(np.asarray(output).shape),
                        "request_id": rid,
                    },
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
                request = self._read_generate_request()
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
            # GenTelemetry's busy clock never stops.
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

        def _read_generate_request(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                raise ValueError("request body is required")
            if length > _MAX_BODY_BYTES:
                raise ValueError("request body too large")
            try:
                payload = json.loads(self.rfile.read(length))
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON body: {exc}") from exc
            if not isinstance(payload, dict) or "prompt" not in payload:
                raise ValueError(
                    'body must be a JSON object with a "prompt" field '
                    "(a list of token ids)"
                )
            try:
                prompt = np.asarray(payload["prompt"], dtype=np.int64)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid prompt: {exc}") from exc
            request = {
                "model": str(payload.get("model", "default")),
                "prompt": prompt,
                "max_new_tokens": int(payload.get("max_new_tokens", 16)),
                "temperature": float(payload.get("temperature", 0.0)),
                "seed": int(payload.get("seed", 0)),
            }
            if payload.get("top_k") is not None:
                request["top_k"] = int(payload["top_k"])
            if payload.get("eos_id") is not None:
                request["eos_id"] = int(payload["eos_id"])
            if payload.get("deadline_ms") is not None:
                request["deadline_s"] = float(payload["deadline_ms"]) / 1e3
            return request

        def _read_request(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                raise ValueError("request body is required")
            if length > _MAX_BODY_BYTES:
                raise ValueError("request body too large")
            try:
                payload = json.loads(self.rfile.read(length))
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON body: {exc}") from exc
            if not isinstance(payload, dict) or "input" not in payload:
                raise ValueError(
                    'body must be a JSON object with an "input" field'
                )
            dtype = payload.get("dtype", "float32")
            try:
                x = np.asarray(payload["input"], dtype=np.dtype(dtype))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid input array: {exc}") from exc
            return {"model": str(payload.get("model", "default")), "x": x}

    return Handler
