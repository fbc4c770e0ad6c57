"""The worker process: serve jobs from shared-memory model state.

``worker_main`` is the spawn target.  It attaches the pool's published
:class:`~repro.serve.cluster.shm.SharedModel`, rehydrates a
:class:`~repro.api.CompiledModel` over zero-copy read-only views
(weights are mapped, never copied -- one model per host, not per
worker), warms the engines, then serves ``(op, job_id, payload)`` jobs
from its pipe.

Health is a heartbeat, not a reply: every loop iteration writes
``time.time()`` into this worker's slot of the pool's heartbeat
segment, so a hung handler (or a hung loop) goes stale and the
supervisor escalates SIGTERM -> SIGKILL.  Long *legitimate* work is
distinguished from a hang by the busy-deadline slot: before executing
a job the worker posts ``now + job_budget_s`` there, and the
supervisor defers staleness judgment until that deadline passes.
The third slot says whether this worker loaded the native LUT query
kernel (:mod:`repro.engine.native`), refreshed after warm-up and after
every job, so ``/healthz`` can show a worker serving through the numpy
fallback.

Decode sequences live worker-side: ``prefill`` builds a KV cache in
the worker's own arena and keeps it in a sequence table; ``step``
batches all of this worker's due sequences into one
``decode_step_many`` tick (continuous batching survives the process
split).  A respawned worker has an empty table, so the front re-prefills
-- see :class:`~repro.serve.cluster.pool.ClusterCompiled`.

Fault injection: the worker arms ``REPRO_FAULT_PLAN`` from its
environment (or an explicit plan argument) at startup and exposes the
``worker.start``, ``worker.loop`` and ``worker.job`` fault points.
"""

from __future__ import annotations

import os
import time
from multiprocessing import shared_memory

import numpy as np

__all__ = ["worker_main", "HEARTBEAT_FIELDS"]

#: Heartbeat layout: float64[workers, 3] --
#: [last_beat, busy_deadline, native_kernel_loaded].
HEARTBEAT_FIELDS = 3

_POLL_SECONDS = 0.1


def _attach_heartbeat(name: str, workers: int, idx: int):
    from repro.serve.cluster.shm import untracked_attach

    with untracked_attach():
        hb_shm = shared_memory.SharedMemory(name=name, create=False)
    slots = np.ndarray(
        (workers, HEARTBEAT_FIELDS), dtype=np.float64, buffer=hb_shm.buf
    )
    return hb_shm, slots[idx]


def _has_decode_api(model) -> bool:
    return all(
        getattr(model, attr, None) is not None
        for attr in ("init_cache", "prefill", "step_many", "embedding")
    )


def worker_main(
    name: str,
    idx: int,
    shm_name: str,
    hb_name: str,
    workers: int,
    conn,
    *,
    fault_plan_json: str | None = None,
    job_budget_s: float = 30.0,
) -> None:
    """Entry point for one worker process (spawn target)."""
    from repro.api.artifact import load_from_parts
    from repro.core.workspace import Workspace
    from repro.engine.native import status as native_status
    from repro.resilience import faults
    from repro.serve.cluster import shm as shm_mod
    from repro.serve.cluster.ipc import UnknownSequence, encode_error

    if fault_plan_json:
        faults.install(faults.FaultPlan.from_json(fault_plan_json))
    else:
        faults.install_from_env()

    hb_shm = None
    shared = None
    compiled = manifest = arrays = None
    sequences: dict[str, list] = {}
    try:
        if faults.ACTIVE:
            faults.fire("worker.start")  # slow-start / startup-kill
        hb_shm, beat = _attach_heartbeat(hb_name, workers, idx)
        shared = shm_mod.attach(shm_name)
        manifest, arrays = shared.load()
        compiled, _ = load_from_parts(manifest, arrays)
        compiled.warmup()
        decode = _has_decode_api(compiled.model)
        if decode:
            from repro.gen.model import mark_batch_invariant

            mark_batch_invariant(compiled.model)
        kv = Workspace(name=f"repro-worker-{name}-{idx}.kv")
        beat[2] = float(native_status()["loaded"])
        conn.send(("ready", os.getpid()))

        while True:
            beat[0] = time.time()
            if faults.ACTIVE:
                faults.fire("worker.loop")  # hang here -> stale beat
            if not conn.poll(_POLL_SECONDS):
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # front went away; supervisor owns cleanup
            if message[0] == "stop":
                return
            op, job_id, payload = message
            beat[0] = time.time()
            beat[1] = beat[0] + job_budget_s
            try:
                if faults.ACTIVE:
                    faults.fire("worker.job")
                if op == "predict":
                    result = np.asarray(compiled(payload))
                elif op == "prefill":
                    if not decode:
                        raise TypeError(
                            f"model {name!r} has no incremental decode API"
                        )
                    seq_id, ids, reserve = payload
                    caches = compiled.model.init_cache(
                        workspace=kv, reserve=int(reserve)
                    )
                    try:
                        logits = compiled.model.prefill(
                            np.asarray(ids, dtype=np.int64), caches
                        )
                    except BaseException:
                        for cache in caches:
                            cache.close()
                        raise
                    old = sequences.pop(seq_id, None)
                    if old is not None:
                        for cache in old:
                            cache.close()
                    sequences[seq_id] = caches
                    result = np.asarray(logits)
                elif op == "step":
                    tokens, cache_lists = [], []
                    for seq_id, token in payload:
                        caches = sequences.get(seq_id)
                        if caches is None:
                            raise UnknownSequence(
                                f"worker {idx} holds no sequence {seq_id!r}"
                            )
                        tokens.append(int(token))
                        cache_lists.append(caches)
                    result = np.asarray(
                        compiled.decode_step_many(tokens, cache_lists)
                    )
                elif op == "release":
                    caches = sequences.pop(payload, None)
                    if caches is not None:
                        for cache in caches:
                            cache.close()
                    result = True
                elif op == "ping":
                    result = "pong"
                else:
                    raise ValueError(f"unknown op {op!r}")
            except BaseException as exc:  # noqa: BLE001 -- process boundary
                try:
                    conn.send((job_id, False, encode_error(exc)))
                except (OSError, BrokenPipeError):
                    return
            else:
                try:
                    conn.send((job_id, True, result))
                except (OSError, BrokenPipeError):
                    return
            finally:
                beat[2] = float(native_status()["loaded"])
                beat[1] = 0.0
                beat[0] = time.time()
    finally:
        # Detach only -- never unlink: the segments belong to the front
        # process and outlive any one worker.  The model and its engine
        # payloads are views into the segment; they must be collected
        # before the mapping can close, or interpreter teardown spews
        # "cannot close exported pointers exist".
        import gc

        sequences.clear()
        compiled = manifest = arrays = beat = None  # noqa: F841
        gc.collect()
        if shared is not None:
            shared.close()
        if hb_shm is not None:
            try:
                hb_shm.close()
            except BufferError:
                pass
