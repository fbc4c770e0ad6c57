"""The front-process half of the cluster: shared memory, supervisor,
delivery.

:class:`ClusterPool` is the :class:`~repro.serve.pool.WorkerPool` --
the same dispatcher threads, batch loop, outcome counting and
seal-then-close -- over runners that deliver each coalesced batch to a
worker *process* over a pipe instead of running it in this one.  What
it adds is the process half: it publishes the model to shared memory,
starts the :class:`~repro.serve.cluster.supervisor.Supervisor` that
keeps the workers alive, and delivers jobs.

One delivery loop carries every job that may run on any worker --
predict batches and decode prefills alike:

* it picks a live worker (preferring the dispatcher's own slot), and
  waits out a respawn when every worker is down at once;
* on :class:`~repro.serve.batcher.WorkerLost` it backs off with jitter,
  counts ``redelivered`` and delivers again on another worker (up to
  ``max_redelivery`` times).  Predict is a pure function of read-only
  weights and a prefill rebuilds its cache from scratch, so the client
  sees added latency, never a 5xx;
* on ``TimeoutError`` (a job past ``job_timeout_s``) it kills the
  suspect worker and fails over the same way;
* while the supervisor's crash-loop breaker holds the model, it refuses
  with :class:`ModelUnroutableError` (HTTP 503).

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

from repro.obs import runtime as _obs
from repro.resilience import faults as _faults
from repro.serve.batcher import Batcher, BatcherClosed, WorkerLost
from repro.serve.cluster.ipc import UnknownSequence
from repro.serve.cluster.supervisor import (
    ClusterConfig,
    ClusterMetrics,
    Supervisor,
)
from repro.serve.cluster import shm as shm_mod
from repro.serve.cluster.worker import has_decode_api
from repro.serve.pool import WorkerPool

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


class ClusterPool(WorkerPool):
    """N supervised worker processes serving one model from one batcher."""

    _thread_role = "dispatch"

    def __init__(
        self,
        compiled,
        batcher: Batcher,
        *,
        workers: int = 2,
        name: str = "model",
        config: ClusterConfig | None = None,
        fault_plan_json: str | None = None,
    ):
        super().__init__(compiled, batcher, workers=workers, name=name)
        self.config = config or ClusterConfig()
        self._fault_plan_json = fault_plan_json
        self._shared: shm_mod.SharedModel | None = None
        self._supervisor: Supervisor | None = None
        self._lock = threading.Lock()
        self._rr = 0  # round-robin cursor for worker selection
        self.metrics = ClusterMetrics(
            alive=self._alive_workers,
            quarantined=lambda: self.quarantined,
            shared_bytes=self._shared_bytes,
        )

    @property
    def metric_sets(self) -> tuple:
        return (self.batcher.metrics, self.metrics)

    @property
    def quarantined(self) -> str | None:
        supervisor = self._supervisor
        return supervisor.quarantined if supervisor is not None else None

    def decode_target(self):
        """Decode against the worker processes: sequences pin their KV
        to a worker and survive its death by re-prefill (see
        :class:`ClusterCompiled`).  A model without the decode API
        keeps the local compiled handle, so the scheduler's type check
        still explains what is missing."""
        if has_decode_api(self._compiled.model):
            return ClusterCompiled(self)
        return self._compiled

    # -- lifecycle -----------------------------------------------------
    def _open(self) -> list:
        """Publish the model to shared memory and spawn the workers; a
        slot's runner delivers its batches to that slot's worker first."""
        from repro.api.artifact import export_parts

        manifest, arrays = export_parts(self._compiled)
        self._shared = shm_mod.publish(manifest, arrays)
        self._supervisor = Supervisor(
            name=self.name,
            workers=self.workers,
            shm_name=self._shared.name,
            config=self.config,
            fault_plan_json=self._fault_plan_json,
            metrics=self.metrics,
        ).start()
        return [
            lambda stacked, slot=slot: self.call_predict(stacked, prefer=slot)
            for slot in range(self.workers)
        ]

    def _close(self, timeout: float) -> None:
        """Stop the workers, and only then -- with no process left
        mapping it -- unlink the shared segment."""
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.stop(timeout)
        shared, self._shared = self._shared, None
        if shared is not None:
            shared.unlink()

    # -- delivery ------------------------------------------------------
    def _await_worker(
        self, *, prefer: int | None, avoid, deadline: float
    ) -> object:
        """A live worker handle, preferring slot *prefer* and skipping
        *avoid* while others live.  Raises :class:`ModelUnroutableError`
        when quarantined.  When *nobody* is live (every worker died at
        once) it waits out the respawn until *deadline*, then raises
        :class:`WorkerLost`: losing the whole pool for a beat is a
        latency event, not an error."""
        while True:
            supervisor = self._supervisor
            if supervisor is None:
                raise BatcherClosed(f"cluster pool {self.name!r} is stopped")
            reason = supervisor.quarantined
            if reason is not None:
                raise ModelUnroutableError(
                    f"model {self.name!r} is quarantined ({reason}); "
                    "unroutable until a probe worker survives"
                )
            live = supervisor.live_handles()
            usable = [h for h in live if h.idx not in avoid] or live
            if usable:
                for handle in usable:
                    if handle.idx == prefer:
                        return handle
                with self._lock:
                    self._rr += 1
                    return usable[self._rr % len(usable)]
            if self._stop.is_set():
                raise BatcherClosed(f"cluster pool {self.name!r} is stopping")
            if time.monotonic() >= deadline:
                raise WorkerLost(
                    f"no live workers for model {self.name!r} "
                    "(respawn in progress)"
                )
            time.sleep(_IDLE_POLL_SECONDS)

    def _deliver(self, op: str, payload, prefer: int | None = None):
        """Run job *op* on some live worker; returns ``(handle,
        reply)``.  The one delivery loop: a lost worker is redelivered
        after a jittered backoff, a timed-out one is killed, and either
        way the job moves to another worker."""
        cfg = self.config
        last: BaseException | None = None
        tried: set[int] = set()
        wait_deadline = time.monotonic() + cfg.redelivery_wait_s
        for attempt in range(cfg.max_redelivery + 1):
            if self._stop.is_set():
                raise BatcherClosed(f"cluster pool {self.name!r} is stopping")
            try:
                handle = self._await_worker(
                    prefer=prefer, avoid=tried, deadline=wait_deadline
                )
            except WorkerLost as exc:
                last = exc
                break
            try:
                return handle, handle.call(op, payload, cfg.job_timeout_s)
            except WorkerLost as exc:
                last = exc
                self.metrics.redelivered.inc()
                # Jittered backoff: the supervisor needs a beat to mark
                # the death and (often) another worker is already live.
                time.sleep(
                    cfg.redelivery_backoff_s
                    * (attempt + 1)
                    * (1.0 + 0.25 * ((hash((self.name, attempt)) % 7) / 7))
                )
            except TimeoutError as exc:
                last = exc
                self.kill_stuck(handle)
            tried.add(handle.idx)
            prefer = None
        raise WorkerLost(
            f"request failed after {cfg.max_redelivery + 1} deliveries: "
            f"{last}"
        ) from last

    def kill_stuck(self, handle) -> None:
        """A job past its budget means the worker is suspect: hand it
        to the supervisor's escalation (and so to a respawn)."""
        supervisor = self._supervisor
        if supervisor is not None and handle.alive:
            supervisor.kill(handle, reason="job-timeout")

    def call_predict(
        self, stacked: np.ndarray, *, prefer: int | None = None
    ) -> np.ndarray:
        """Execute one stacked batch on some worker, preferring slot
        *prefer*."""
        if _obs.TRACING:
            from repro.obs.trace import span

            with span(
                "cluster.dispatch", model=self.name, batch=len(stacked)
            ):
                return self._deliver("predict", stacked, prefer)[1]
        return self._deliver("predict", stacked, prefer)[1]

    # -- decode plumbing (used by ClusterCompiled) ----------------------
    def seq_prefill(self, seq: "RemoteSequence", ids: np.ndarray):
        """Prefill *seq* on a live worker and pin the sequence there."""
        seq.handle, logits = self._deliver(
            "prefill", (seq.seq_id, np.asarray(ids), seq.reserve)
        )
        return logits

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
    def _alive_workers(self) -> int:
        supervisor = self._supervisor
        return supervisor.alive_count() if supervisor is not None else 0

    def _shared_bytes(self) -> int:
        shared = self._shared
        return shared.nbytes if shared is not None else 0

    def cluster_stats(self) -> dict:
        """Worker states and the pool's counts (the ``cluster`` key of
        the model's ``/metrics`` JSON)."""
        supervisor = self._supervisor
        stats = supervisor.stats() if supervisor is not None else {
            "workers": [], "quarantined": None, "consecutive_deaths": 0,
        }
        return {
            **stats,
            **self.metrics.counts(),
            "shared_bytes": self._shared_bytes(),
        }


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
        workers; the sequences of a dead worker, or of one a timed-out
        step got killed, are transparently recovered by re-prefilling
        their accepted-token log.

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
            except (WorkerLost, UnknownSequence, TimeoutError) as exc:
                if isinstance(exc, TimeoutError):
                    self._pool.kill_stuck(handle)
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
