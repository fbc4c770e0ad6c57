"""The front-process half of the cluster: dispatch, retry, hedge.

:class:`ClusterPool` is the process-pool drop-in for
:class:`~repro.serve.pool.WorkerPool`: same constructor shape, same
``start``/``stop``/``running`` surface, same
batcher.  The difference is where batches execute -- one dispatcher
thread per worker slot pulls coalesced batches from the existing
:class:`~repro.serve.batcher.Batcher` and round-trips them to its
worker *process* over a pipe.

The robustness contract on this side:

* **redelivery** -- predict is a pure function of read-only weights, so
  a batch in flight on a dying worker is retried on another (up to
  ``max_redelivery`` times, jittered exponential backoff).  The client
  sees added latency, never a 5xx.
* **hedging** -- a batch-1 GEMV (the latency-critical decode shape)
  optionally fires a second copy at another worker after ``hedge_ms``
  without a reply; first answer wins, the straggler's reply is drained
  by job id.  Identical inputs on identical weights: both answers are
  bit-identical, so racing them is free of semantics.
* **quarantine** -- when the supervisor's crash-loop breaker trips, new
  work is refused with :class:`ModelUnroutableError` (HTTP 503) while
  the server-side SLO hook sheds admissions upstream.

:class:`ClusterCompiled` adapts the pool to the
:class:`~repro.serve.sequences.SequenceScheduler` decode contract:
sequences are pinned to a worker that holds their KV cache; on worker
death the facade re-prefills ``prompt + accepted tokens`` onto a live
worker *inside the tick* -- by the prefill==step bit-identity contract
the recovered logits equal the lost step's, so the stream's token
sequence is unchanged and recovery is invisible above this layer.
"""

from __future__ import annotations

import threading
import time
import uuid

import numpy as np

from repro._util import check_positive_int
from repro.obs import runtime as _obs
from repro.resilience import faults as _faults
from repro.serve.batcher import Batch, Batcher, BatcherClosed, WorkerLost
from repro.serve.cluster.ipc import UnknownSequence
from repro.serve.cluster.supervisor import ClusterConfig, Supervisor
from repro.serve.cluster import shm as shm_mod

__all__ = [
    "ClusterCompiled",
    "ClusterConfig",
    "ClusterPool",
    "ModelUnroutableError",
]

_IDLE_POLL_SECONDS = 0.1


class ModelUnroutableError(BatcherClosed):
    """The model's worker pool is quarantined (crash-loop breaker).

    Subclasses :class:`~repro.serve.batcher.BatcherClosed` so the HTTP
    mapping yields 503 -- but the server's submit path re-raises it
    immediately instead of retrying: a quarantined pool will not
    recover within a retry loop.
    """


class ClusterPool:
    """N supervised worker processes serving one model from one batcher."""

    def __init__(
        self,
        compiled,
        batcher: Batcher,
        *,
        workers: int = 2,
        name: str = "model",
        config: ClusterConfig | None = None,
        on_quarantine=None,
        on_release=None,
        fault_plan_json: str | None = None,
    ):
        check_positive_int(workers, "workers")
        self.batcher = batcher
        self.name = name
        self.workers = workers
        self.config = config or ClusterConfig()
        self._compiled = compiled
        self._on_quarantine = on_quarantine
        self._on_release = on_release
        self._fault_plan_json = fault_plan_json
        self._shared: shm_mod.SharedModel | None = None
        self._supervisor: Supervisor | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._rr = 0  # round-robin cursor for worker selection
        # Redelivery/hedging counters (exposed as repro_cluster_*).
        self.counters = {"redelivered": 0, "hedges": 0, "hedge_wins": 0}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ClusterPool":
        """Publish the model to shared memory, spawn the workers, start
        dispatching."""
        if self._threads:
            raise RuntimeError("cluster pool is already started")
        from repro.api.artifact import export_parts

        manifest, arrays = export_parts(self._compiled)
        self._shared = shm_mod.publish(manifest, arrays)
        self._stop.clear()
        self._supervisor = Supervisor(
            name=self.name,
            workers=self.workers,
            shm_name=self._shared.name,
            config=self.config,
            on_quarantine=self._on_quarantine,
            on_release=self._on_release,
            fault_plan_json=self._fault_plan_json,
        ).start()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._run,
                args=(i,),
                name=f"repro-dispatch-{self.name}-{i}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def stop(self, timeout: float = 5.0, *, drain: bool = False) -> None:
        """Drain-then-close, strictly ordered: seal/close the batcher,
        join the dispatchers (every in-flight job finishes or fails
        over), stop the workers, and only then -- with no process left
        mapping it -- unlink the shared segment."""
        if drain:
            self.batcher.seal(timeout)
        self._stop.set()
        self.batcher.close()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.stop(timeout)
        shared, self._shared = self._shared, None
        if shared is not None:
            shared.unlink()

    @property
    def running(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    @property
    def quarantined(self) -> str | None:
        supervisor = self._supervisor
        return supervisor.quarantined if supervisor is not None else None

    # -- worker selection ----------------------------------------------
    def _pick(self, *, prefer: int | None = None, avoid=()) -> object:
        """A live worker handle, preferring slot *prefer*; raises
        :class:`ModelUnroutableError` when quarantined and
        :class:`WorkerLost` when nobody is alive right now."""
        supervisor = self._supervisor
        if supervisor is None:
            raise BatcherClosed(f"cluster pool {self.name!r} is stopped")
        if supervisor.quarantined is not None:
            raise ModelUnroutableError(
                f"model {self.name!r} is quarantined "
                f"({supervisor.quarantined}); unroutable until a probe "
                "worker survives"
            )
        live = supervisor.live_handles()
        usable = [h for h in live if h.idx not in avoid] or live
        if not usable:
            raise WorkerLost(
                f"no live workers for model {self.name!r} "
                "(respawn in progress)"
            )
        if prefer is not None:
            for handle in usable:
                if handle.idx == prefer:
                    return handle
        with self._lock:
            self._rr += 1
            return usable[self._rr % len(usable)]

    def _await_worker(
        self, *, prefer: int | None = None, avoid=(), deadline: float
    ) -> object:
        """Like :meth:`_pick`, but when *nobody* is live (every worker
        died at once) waits out the respawn until *deadline* instead of
        failing -- losing the whole pool for a beat is a latency event,
        not an error.  Quarantine still raises immediately."""
        while True:
            try:
                return self._pick(prefer=prefer, avoid=avoid)
            except WorkerLost:
                if self._stop.is_set():
                    raise BatcherClosed(
                        f"cluster pool {self.name!r} is stopping"
                    ) from None
                if time.monotonic() >= deadline:
                    raise
                time.sleep(_IDLE_POLL_SECONDS)

    # -- dispatch ------------------------------------------------------
    def _run(self, idx: int) -> None:
        while not self._stop.is_set():
            batch = self.batcher.next_batch(timeout=_IDLE_POLL_SECONDS)
            if batch is None:
                continue
            self._execute(batch, prefer=idx)

    def _execute(self, batch: Batch, prefer: int | None = None) -> None:
        telemetry = self.batcher.telemetry
        try:
            outputs = self.call_predict(batch.stacked(), prefer=prefer)
            done = time.monotonic()
            batch.resolve(outputs)
        except BaseException as exc:  # noqa: BLE001 -- must reach callers
            batch.fail(exc)
            for _ in batch.requests:
                telemetry.record_result(0.0, ok=False)
            if _obs.SLO:
                from repro.obs import slo as _slo

                for _ in batch.requests:
                    _slo.record_request(self.name, 0.0, ok=False)
            return
        for request in batch.requests:
            trace = request.trace
            telemetry.record_result(
                done - request.enqueue_time,
                ok=True,
                trace_id=trace.trace_id if trace is not None else None,
            )
        if _obs.SLO:
            from repro.obs import slo as _slo

            for request in batch.requests:
                _slo.record_request(
                    self.name, done - request.enqueue_time, ok=True
                )

    def call_predict(
        self, stacked: np.ndarray, *, prefer: int | None = None
    ) -> np.ndarray:
        """Execute one stacked batch on some worker, with redelivery
        (and hedging for batch-1)."""
        if _obs.TRACING:
            from repro.obs.trace import span

            with span(
                "cluster.dispatch", model=self.name, batch=len(stacked)
            ):
                return self._call_with_retry(stacked, prefer)
        return self._call_with_retry(stacked, prefer)

    def _call_with_retry(self, stacked, prefer):
        cfg = self.config
        last: BaseException | None = None
        tried: set[int] = set()
        wait_deadline = time.monotonic() + cfg.redelivery_wait_s
        for attempt in range(cfg.max_redelivery + 1):
            if self._stop.is_set():
                raise BatcherClosed(
                    f"cluster pool {self.name!r} is stopping"
                )
            try:
                handle = self._await_worker(
                    prefer=prefer, avoid=tried, deadline=wait_deadline
                )
            except WorkerLost as exc:
                last = exc
                break
            try:
                if (
                    cfg.hedge_ms is not None
                    and stacked.shape[0] == 1
                ):
                    return self._call_hedged(handle, stacked)
                return handle.call(
                    "predict", stacked, cfg.job_timeout_s
                )
            except WorkerLost as exc:
                last = exc
                tried.add(handle.idx)
                prefer = None
                with self._lock:
                    self.counters["redelivered"] += 1
                # Jittered backoff: the supervisor needs a beat to mark
                # the death and (often) another worker is already live.
                time.sleep(
                    cfg.redelivery_backoff_s
                    * (attempt + 1)
                    * (1.0 + 0.25 * ((hash((self.name, attempt)) % 7) / 7))
                )
            except TimeoutError as exc:
                # A job past its budget means the worker is suspect:
                # hand it to the supervisor's escalation and fail over.
                last = exc
                tried.add(handle.idx)
                prefer = None
                supervisor = self._supervisor
                if supervisor is not None and handle.alive:
                    supervisor.kill(handle, reason="job-timeout")
        raise WorkerLost(
            f"request failed after {cfg.max_redelivery + 1} deliveries: "
            f"{last}"
        ) from last

    def _call_hedged(self, primary, stacked) -> np.ndarray:
        """Batch-1 straggler hedging: race a second worker after
        ``hedge_ms`` of silence; first reply wins."""
        cfg = self.config
        result: list = []
        errors: list[BaseException] = []
        arrived = threading.Event()

        def attempt(handle, is_hedge: bool):
            try:
                value = handle.call("predict", stacked, cfg.job_timeout_s)
            except BaseException as exc:  # noqa: BLE001 -- race boundary
                errors.append(exc)
            else:
                with self._lock:
                    if not result:
                        if is_hedge:
                            self.counters["hedge_wins"] += 1
                        result.append(value)
            arrived.set()

        threading.Thread(
            target=attempt,
            args=(primary, False),
            name=f"repro-dispatch-{self.name}-primary",
            daemon=True,
        ).start()
        expected = 1
        if not arrived.wait(cfg.hedge_ms / 1e3):
            # Primary is straggling: fire the hedge at another worker.
            try:
                hedge = self._pick(avoid={primary.idx})
            except (WorkerLost, ModelUnroutableError):
                hedge = None
            if hedge is not None and hedge is not primary:
                with self._lock:
                    self.counters["hedges"] += 1
                expected = 2
                threading.Thread(
                    target=attempt,
                    args=(hedge, True),
                    name=f"repro-dispatch-{self.name}-hedge",
                    daemon=True,
                ).start()
        deadline = time.monotonic() + cfg.job_timeout_s
        while time.monotonic() < deadline:
            if result:
                return result[0]
            if len(errors) >= expected:
                raise errors[-1]
            arrived.wait(0.02)
            arrived.clear()
        if result:
            return result[0]
        if errors:
            raise errors[-1]
        raise TimeoutError(
            f"hedged request got no reply within {cfg.job_timeout_s:g}s"
        )

    # -- decode plumbing (used by ClusterCompiled) ----------------------
    def seq_prefill(self, seq: "RemoteSequence", ids: np.ndarray):
        """Prefill *seq* on a live worker (pins the sequence there);
        retried across workers like predict."""
        cfg = self.config
        last: BaseException | None = None
        tried: set[int] = set()
        wait_deadline = time.monotonic() + cfg.redelivery_wait_s
        for attempt in range(cfg.max_redelivery + 1):
            try:
                handle = self._await_worker(
                    avoid=tried, deadline=wait_deadline
                )
            except WorkerLost as exc:
                last = exc
                break
            try:
                logits = handle.call(
                    "prefill",
                    (seq.seq_id, np.asarray(ids), seq.reserve),
                    cfg.job_timeout_s,
                )
            except WorkerLost as exc:
                last = exc
                tried.add(handle.idx)
                time.sleep(cfg.redelivery_backoff_s * (attempt + 1))
                continue
            seq.handle = handle
            return logits
        raise WorkerLost(
            f"prefill failed after {cfg.max_redelivery + 1} deliveries: "
            f"{last}"
        ) from last

    def seq_release(self, seq: "RemoteSequence") -> None:
        """Best-effort KV drop on the pinned worker."""
        handle = seq.handle
        if handle is None or not handle.alive:
            return
        try:
            handle.call("release", seq.seq_id, 1.0)
        except Exception:  # noqa: BLE001 -- teardown is best-effort
            pass

    # -- observability -------------------------------------------------
    def cluster_stats(self) -> dict:
        """Supervisor lifecycle counters + dispatch counters."""
        supervisor = self._supervisor
        stats = supervisor.stats() if supervisor is not None else {
            "workers": [], "quarantined": None, "consecutive_deaths": 0,
            "spawns": 0, "deaths": 0, "respawns": 0, "kills": 0,
            "quarantines": 0, "releases": 0,
        }
        with self._lock:
            stats.update(self.counters)
        stats["shared_bytes"] = (
            self._shared.nbytes if self._shared is not None else 0
        )
        return stats


class RemoteSequence:
    """Front-side handle for one worker-resident KV cache.

    Stands in for the cache objects the scheduler threads through
    ``init_cache``/``prefill``/``decode_step_many``; carries the
    accepted-token log that makes crash recovery possible.
    """

    def __init__(self, pool: ClusterPool, reserve: int):
        self.pool = pool
        self.seq_id = uuid.uuid4().hex[:16]
        self.reserve = int(reserve)
        self.handle = None  # pinned worker, set by seq_prefill
        self.log: list[int] = []  # prompt ids + accepted tokens

    def close(self) -> None:
        self.pool.seq_release(self)
        self.handle = None


class _RemoteDecodeModel:
    """Duck-typed ``compiled.model`` for the sequence scheduler."""

    # Non-None sentinels: the scheduler type-checks for the DecoderLM
    # decode API by attribute presence; ``step_many`` is never called
    # directly (ticks go through ClusterCompiled.decode_step_many) and
    # ``embedding`` only distinguishes token-level LMs.
    embedding = object()

    def __init__(self, pool: ClusterPool):
        self._pool = pool

    def init_cache(self, *, workspace=None, reserve: int = 0):
        del workspace  # KV lives in the worker's arena, not the front's
        return [RemoteSequence(self._pool, reserve)]

    def prefill(self, ids: np.ndarray, caches) -> np.ndarray:
        seq = caches[0]
        ids = np.asarray(ids, dtype=np.int64)
        logits = self._pool.seq_prefill(seq, ids)
        seq.log = [int(t) for t in ids.reshape(-1)]
        return np.asarray(logits)

    def step_many(self, tokens, cache_lists):  # pragma: no cover
        raise NotImplementedError(
            "cluster decode ticks go through ClusterCompiled"
            ".decode_step_many"
        )


class ClusterCompiled:
    """The scheduler-facing facade over a :class:`ClusterPool`.

    Implements exactly the slice of :class:`~repro.api.CompiledModel`
    the :class:`~repro.serve.sequences.SequenceScheduler` touches.
    """

    def __init__(self, pool: ClusterPool):
        self._pool = pool
        self.model = _RemoteDecodeModel(pool)

    def decode_step_many(self, tokens, cache_lists) -> np.ndarray:
        """One tick across sequences pinned to (possibly) different
        workers; a dead worker's sequences are transparently recovered
        by re-prefilling their accepted-token log.

        Bit-identity: a recovered row is the last-position logits of
        ``prefill(log + [token])``, which the prefill==step contract
        (see :mod:`repro.gen.model`) guarantees equals the lost
        ``step(token)`` row -- so the stream's sampler sees identical
        inputs and the token sequence is unchanged.
        """
        if _faults.ACTIVE:
            _faults.fire("cluster.tick")
        sequences = [caches[0] for caches in cache_lists]
        rows: list = [None] * len(sequences)
        groups: dict[int, list[int]] = {}
        for i, seq in enumerate(sequences):
            handle = seq.handle
            key = (
                handle.idx
                if handle is not None and handle.alive
                else -1 - i  # dead/unpinned: recover individually
            )
            groups.setdefault(key, []).append(i)
        for key, indices in groups.items():
            handle = sequences[indices[0]].handle
            batch = [
                (sequences[i].seq_id, int(tokens[i])) for i in indices
            ]
            try:
                if key < 0 or handle is None or not handle.alive:
                    raise WorkerLost("sequence lost its worker")
                logits = handle.call(
                    "step", batch, self._pool.config.job_timeout_s
                )
            except (WorkerLost, UnknownSequence):
                for i in indices:
                    rows[i] = self._recover(sequences[i], int(tokens[i]))
                continue
            logits = np.asarray(logits)
            for row, i in zip(logits, indices):
                seq = sequences[i]
                seq.log.append(int(tokens[i]))
                rows[i] = row
        return np.asarray(rows)

    def _recover(self, seq: RemoteSequence, token: int) -> np.ndarray:
        """Re-prefill ``log + [token]`` on a live worker; the returned
        last-position logits *are* this tick's row."""
        ids = np.asarray(seq.log + [token], dtype=np.int64)[None, :]
        logits = np.asarray(self._pool.seq_prefill(seq, ids))
        seq.log.append(int(token))
        # prefill returns (1, vocab); a tick row is (vocab,).
        return logits[0]
