"""Worker lifecycle: spawn, health, escalation, respawn, breaker.

The supervisor owns the robustness contract of the process pool:

* **spawn** -- workers start via the ``spawn`` context (the front
  process is heavily threaded; ``fork`` would copy its locks mid-state)
  and must report ``ready`` within ``start_timeout_s``;
* **health** -- a monitor thread reads each worker's heartbeat slot
  every ``heartbeat_interval_s``.  A stale beat (no write for
  ``heartbeat_timeout_s``, and no posted busy-deadline excusing it)
  escalates SIGTERM, then SIGKILL after ``kill_grace_s``;
* **respawn** -- a dead worker is replaced after an exponential
  seeded-jitter backoff (``respawn_backoff_s`` doubling per consecutive
  death, capped at ``respawn_backoff_max_s``);
* **crash-loop breaker** -- ``crash_loop_threshold`` consecutive deaths
  within ``crash_loop_age_s`` of their spawn quarantines the pool:
  respawns stop, ``on_quarantine`` fires (the server wires this into
  the SLO shed path), and every ``probe_interval_s`` one *half-open
  probe* worker is attempted; a probe that survives ``crash_loop_age_s``
  releases the quarantine and refills the pool.

Handles are generational: each respawn produces a new
:class:`WorkerHandle`, so anything holding a stale handle observes
``alive == False`` instead of talking to the wrong process.
"""

from __future__ import annotations

import multiprocessing as mp
import random
import threading
import time
from dataclasses import dataclass
from itertools import count
from multiprocessing import shared_memory

import numpy as np

from repro.serve.batcher import WorkerLost
from repro.serve.cluster.ipc import decode_error
from repro.serve.cluster.worker import HEARTBEAT_FIELDS, worker_main

__all__ = ["ClusterConfig", "Supervisor", "WorkerHandle"]


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the supervised process pool (all durations seconds)."""

    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 3.0
    kill_grace_s: float = 1.0
    start_timeout_s: float = 60.0
    respawn_backoff_s: float = 0.2
    respawn_backoff_max_s: float = 5.0
    crash_loop_threshold: int = 3
    crash_loop_age_s: float = 5.0
    probe_interval_s: float = 2.0
    max_redelivery: int = 3
    redelivery_backoff_s: float = 0.05
    # Budget for waiting out a respawn when *no* worker is live (a
    # simultaneous loss of every worker); does not count as a delivery.
    redelivery_wait_s: float = 30.0
    job_timeout_s: float = 30.0
    # Hedge a batch-1 request onto a second worker after this many ms
    # without a reply (None disables hedging).
    hedge_ms: float | None = None
    seed: int = 0
    start_method: str = "spawn"


class WorkerHandle:
    """One live (or dead) worker process and its pipe."""

    def __init__(self, idx: int, generation: int, proc, conn):
        self.idx = idx
        self.generation = generation
        self.proc = proc
        self.conn = conn
        self.spawned_at = time.monotonic()
        self.alive = True
        self._lock = threading.Lock()
        self._job_ids = count()

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def call(self, op: str, payload, timeout: float):
        """Synchronous job round-trip; raises
        :class:`~repro.serve.batcher.WorkerLost` when the worker dies
        (or is killed) underneath the call, ``TimeoutError`` past
        *timeout*.  Serialized per handle so replies can't interleave;
        stale replies (an abandoned earlier job) are drained by id."""
        deadline = time.monotonic() + timeout
        with self._lock:
            if not self.alive:
                raise WorkerLost(f"worker {self.idx} is down")
            job_id = next(self._job_ids)
            try:
                self.conn.send((op, job_id, payload))
            except (OSError, BrokenPipeError) as exc:
                raise WorkerLost(
                    f"worker {self.idx} pipe closed mid-send"
                ) from exc
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"worker {self.idx} gave no reply to {op!r} "
                        f"within {timeout:g}s"
                    )
                try:
                    # Short slices: a kill closes nothing on our end, so
                    # we also watch the alive flag the supervisor drops.
                    if not self.conn.poll(min(0.05, remaining)):
                        if not self.alive:
                            raise WorkerLost(
                                f"worker {self.idx} died during {op!r}"
                            )
                        continue
                    reply_id, ok, value = self.conn.recv()
                except (EOFError, OSError, BrokenPipeError) as exc:
                    raise WorkerLost(
                        f"worker {self.idx} died during {op!r}"
                    ) from exc
                if reply_id != job_id:
                    continue  # stale reply from an abandoned job
                if ok:
                    return value
                raise decode_error(value)

    def close(self) -> None:
        self.alive = False
        try:
            self.conn.close()
        except OSError:
            pass


class Supervisor:
    """Owns the worker processes of one :class:`ClusterPool`."""

    def __init__(
        self,
        *,
        name: str,
        workers: int,
        shm_name: str,
        config: ClusterConfig,
        on_quarantine=None,
        on_release=None,
        on_death=None,
        fault_plan_json: str | None = None,
    ):
        self.name = name
        self.workers = workers
        self.config = config
        self._shm_name = shm_name
        self._fault_plan_json = fault_plan_json
        self._ctx = mp.get_context(config.start_method)
        self._rng = random.Random(config.seed)
        self._on_quarantine = on_quarantine
        self._on_release = on_release
        self._on_death = on_death
        self._lock = threading.Lock()
        self._handles: list[WorkerHandle | None] = [None] * workers
        self._generations = count()
        # Per-slot respawn schedule (monotonic deadline) and pool-wide
        # consecutive-death count for the breaker.
        self._respawn_at: dict[int, float] = {}
        self._consecutive_deaths = 0
        self._quarantined: str | None = None
        self._next_probe_at = 0.0
        self._probe_idx: int | None = None
        self._stopping = False
        self._monitor: threading.Thread | None = None
        # Lifecycle counters (exposed on /metrics as repro_cluster_*).
        self.counters = {
            "spawns": 0,
            "deaths": 0,
            "respawns": 0,
            "kills": 0,
            "quarantines": 0,
            "releases": 0,
        }
        # Heartbeat segment: float64[workers, 3] =
        # [beat, busy_deadline, native_kernel_loaded].
        nbytes = workers * HEARTBEAT_FIELDS * 8
        self._hb_shm = shared_memory.SharedMemory(
            name=f"{shm_name}-hb", create=True, size=nbytes
        )
        self._hb = np.ndarray(
            (workers, HEARTBEAT_FIELDS),
            dtype=np.float64,
            buffer=self._hb_shm.buf,
        )
        self._hb[:] = 0.0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Supervisor":
        for idx in range(self.workers):
            self._spawn(idx)
        self._monitor = threading.Thread(
            target=self._run,
            name=f"repro-supervisor-{self.name}",
            daemon=True,
        )
        self._monitor.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop monitoring, ask workers to exit, escalate stragglers.

        Returns only when every worker process has exited -- the caller
        unlinks the model segment right after, and a live worker would
        be left over a dangling mapping.
        """
        with self._lock:
            self._stopping = True
            handles = [h for h in self._handles if h is not None]
        monitor = self._monitor
        if monitor is not None:
            monitor.join(timeout)
            self._monitor = None
        for handle in handles:
            try:
                handle.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.proc.join(max(0.1, deadline - time.monotonic()))
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout)
            handle.close()
        with self._lock:
            self._handles = [None] * self.workers
        self._hb_shm.close()
        try:
            self._hb_shm.unlink()
        except FileNotFoundError:
            pass

    # -- querying ------------------------------------------------------
    def handle(self, idx: int) -> WorkerHandle | None:
        with self._lock:
            return self._handles[idx]

    def live_handles(self) -> list[WorkerHandle]:
        with self._lock:
            return [
                h for h in self._handles if h is not None and h.alive
            ]

    @property
    def quarantined(self) -> str | None:
        with self._lock:
            return self._quarantined

    def alive_count(self) -> int:
        return len(self.live_handles())

    def stats(self) -> dict:
        with self._lock:
            workers = [
                {
                    "idx": i,
                    "pid": h.pid if h is not None else None,
                    "alive": bool(h is not None and h.alive),
                    "generation": h.generation if h is not None else None,
                    "native_kernel": bool(
                        h is not None and h.alive and self._hb[i, 2] > 0.0
                    ),
                }
                for i, h in enumerate(self._handles)
            ]
            return {
                "workers": workers,
                "quarantined": self._quarantined,
                "consecutive_deaths": self._consecutive_deaths,
                **dict(self.counters),
            }

    # -- supervision ---------------------------------------------------
    def kill(self, handle: WorkerHandle, *, reason: str) -> None:
        """Deadline-escalated removal: SIGTERM, grace, SIGKILL."""
        proc = handle.proc
        if proc.is_alive() and proc.pid is not None:
            try:
                proc.terminate()  # SIGTERM
            except (OSError, ValueError):
                pass
            proc.join(self.config.kill_grace_s)
            if proc.is_alive():
                try:
                    proc.kill()  # SIGKILL
                except (OSError, ValueError):
                    pass
                proc.join(self.config.kill_grace_s)
        with self._lock:
            self.counters["kills"] += 1
        self._handle_death(handle, reason=reason)

    def _spawn(self, idx: int, *, probe: bool = False) -> bool:
        """Start one worker in slot *idx*; returns readiness."""
        generation = next(self._generations)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                self.name,
                idx,
                self._shm_name,
                self._hb_shm.name,
                self.workers,
                child_conn,
            ),
            kwargs={
                "fault_plan_json": self._fault_plan_json,
                "job_budget_s": self.config.job_timeout_s,
            },
            name=f"repro-worker-{self.name}-{idx}",
            daemon=True,
        )
        self._hb[idx, :] = 0.0
        proc.start()
        child_conn.close()
        with self._lock:
            self.counters["spawns"] += 1
        handle = WorkerHandle(idx, generation, proc, parent_conn)
        if not parent_conn.poll(self.config.start_timeout_s):
            handle.close()
            self.kill(handle, reason="start-timeout")
            return False
        try:
            ready = parent_conn.recv()
        except (EOFError, OSError):
            self._handle_death(handle, reason="died-at-start")
            return False
        if not (isinstance(ready, tuple) and ready[0] == "ready"):
            handle.close()
            self.kill(handle, reason="bad-handshake")
            return False
        handle.spawned_at = time.monotonic()
        with self._lock:
            self._handles[idx] = handle
            if probe:
                self._probe_idx = idx
        return True

    def _handle_death(self, handle: WorkerHandle, *, reason: str) -> None:
        """Account one worker death and schedule its replacement (or
        trip the breaker)."""
        now = time.monotonic()
        handle.close()
        on_quarantine = None
        with self._lock:
            if self._handles[handle.idx] is handle:
                self._handles[handle.idx] = None
            self.counters["deaths"] += 1
            if self._stopping:
                return
            young = (now - handle.spawned_at) < self.config.crash_loop_age_s
            self._consecutive_deaths = (
                self._consecutive_deaths + 1 if young else 1
            )
            if self._probe_idx == handle.idx:
                # The half-open probe died: stay quarantined, try again
                # after the next probe interval.
                self._probe_idx = None
                self._next_probe_at = now + self.config.probe_interval_s
                return
            if (
                self._quarantined is None
                and self._consecutive_deaths
                >= self.config.crash_loop_threshold
            ):
                self._quarantined = (
                    f"crash-loop: {self._consecutive_deaths} consecutive "
                    f"worker deaths (last: {reason})"
                )
                self.counters["quarantines"] += 1
                self._next_probe_at = now + self.config.probe_interval_s
                self._respawn_at.clear()
                on_quarantine = self._on_quarantine
            elif self._quarantined is None:
                backoff = min(
                    self.config.respawn_backoff_s
                    * (2 ** (self._consecutive_deaths - 1)),
                    self.config.respawn_backoff_max_s,
                )
                backoff *= 1.0 + self._rng.uniform(0.0, 0.25)
                self._respawn_at[handle.idx] = now + backoff
        if self._on_death is not None:
            self._on_death(handle, reason)
        if on_quarantine is not None:
            on_quarantine(self._quarantined)

    def _run(self) -> None:
        cfg = self.config
        while True:
            time.sleep(cfg.heartbeat_interval_s)
            with self._lock:
                if self._stopping:
                    return
                handles = list(self._handles)
                due_respawns = [
                    idx
                    for idx, at in self._respawn_at.items()
                    if at <= time.monotonic()
                ]
                for idx in due_respawns:
                    del self._respawn_at[idx]
                quarantined = self._quarantined
                probe_due = (
                    quarantined is not None
                    and self._probe_idx is None
                    and time.monotonic() >= self._next_probe_at
                )
            now = time.time()
            for handle in handles:
                if handle is None or not handle.alive:
                    continue
                if not handle.proc.is_alive():
                    self._handle_death(handle, reason="exited")
                    continue
                beat, busy = self._hb[handle.idx, :2]
                if beat == 0.0:
                    continue  # not serving yet
                stale = (now - beat) > cfg.heartbeat_timeout_s
                excused = busy > 0.0 and now <= busy
                if stale and not excused:
                    self.kill(handle, reason="stale-heartbeat")
            for idx in due_respawns:
                if self.handle(idx) is None and self.quarantined is None:
                    with self._lock:
                        self.counters["respawns"] += 1
                    self._spawn(idx)
            if probe_due:
                with self._lock:
                    idx = next(
                        (
                            i
                            for i, h in enumerate(self._handles)
                            if h is None or not h.alive
                        ),
                        None,
                    )
                    if idx is not None:
                        self._next_probe_at = (
                            time.monotonic() + cfg.probe_interval_s
                        )
                        self.counters["respawns"] += 1
                if idx is not None:
                    self._spawn(idx, probe=True)
            self._check_probe()

    def _check_probe(self) -> None:
        """Release the quarantine once the probe worker has survived
        ``crash_loop_age_s``; refill the remaining slots."""
        with self._lock:
            idx = self._probe_idx
            if idx is None or self._quarantined is None:
                return
            handle = self._handles[idx]
            if handle is None or not handle.alive:
                return
            if (
                time.monotonic() - handle.spawned_at
                < self.config.crash_loop_age_s
            ):
                return
            self._quarantined = None
            self._probe_idx = None
            self._consecutive_deaths = 0
            self.counters["releases"] += 1
            missing = [
                i
                for i, h in enumerate(self._handles)
                if h is None or not h.alive
            ]
            on_release = self._on_release
        for i in missing:
            with self._lock:
                self.counters["respawns"] += 1
            self._spawn(i)
        if on_release is not None:
            on_release()
