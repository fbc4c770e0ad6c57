"""Worker threads executing coalesced batches on pinned model replicas.

Each worker owns a warmed :class:`~repro.api.CompiledModel` replica
(:meth:`~repro.api.CompiledModel.clone`: compiled engines shared,
mutable bookkeeping private), pulls batches from the
:class:`~repro.serve.batcher.Batcher`, runs the model once per batch,
and splits the outputs back per request.  numpy's kernels release the
GIL for large blocks, so two workers overlap usefully even in-process;
the per-replica engine dicts mean they never contend on layer state.
"""

from __future__ import annotations

import threading
import time

from repro._util import check_positive_int
from repro.api.model import CompiledModel
from repro.obs import runtime as _obs
from repro.serve.batcher import Batch, Batcher

__all__ = ["WorkerPool"]

_IDLE_POLL_SECONDS = 0.1


class WorkerPool:
    """N daemon threads serving one model from one batcher."""

    def __init__(
        self,
        compiled: CompiledModel,
        batcher: Batcher,
        *,
        workers: int = 2,
        name: str = "model",
    ):
        check_positive_int(workers, "workers")
        self.batcher = batcher
        self.name = name
        self.workers = workers
        self._compiled = compiled
        self._threads: list[threading.Thread] = []
        self._replicas: list[CompiledModel] = []
        self._stop = threading.Event()

    def start(self) -> "WorkerPool":
        """Warm the engines, clone one replica per worker, start
        serving.

        Each replica owns its layer bookkeeping
        (:meth:`~repro.api.CompiledModel.clone` shares only the
        compiled engines and read-only parameters), so worker threads
        never contend on another worker's build locks.
        """
        if self._threads:
            raise RuntimeError("worker pool is already started")
        self._stop.clear()
        replicas = self._compiled.replicate(self.workers)
        self._replicas = replicas
        for i, replica in enumerate(replicas):
            thread = threading.Thread(
                target=self._run,
                args=(replica,),
                name=f"repro-worker-{self.name}-{i}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def _run(self, replica: CompiledModel) -> None:
        while not self._stop.is_set():
            batch = self.batcher.next_batch(timeout=_IDLE_POLL_SECONDS)
            if batch is None:
                continue
            self._execute(replica, batch)

    def _execute(self, replica: CompiledModel, batch: Batch) -> None:
        if _obs.TRACING:
            self._execute_traced(replica, batch)
        else:
            self._execute_plain(replica, batch)

    def _execute_plain(self, replica: CompiledModel, batch: Batch) -> None:
        telemetry = self.batcher.telemetry
        try:
            outputs = replica(batch.stacked())
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
            # The queue span's trace id rides with the request across
            # threads; attaching it here is what links a latency-bucket
            # exemplar on /metrics back to the request's trace.
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

    def _execute_traced(self, replica: CompiledModel, batch: Batch) -> None:
        """:meth:`_execute_plain` under a span tree.

        The fan-in point of the trace: N request spans (each with its
        own trace id) converge on one model execution.  The
        ``serve.batch`` span **links** every request's queue-span
        context and, when the batch serves exactly one request, adopts
        that request's trace id as parent -- so a single-request trace
        stays one connected tree, and a coalesced batch is reachable
        from each of its requests via the links.  ``worker.execute`` is
        activated inside it on this worker thread, which is what the
        per-layer ``engine.matmul`` spans parent onto.
        """
        from repro.obs.trace import activate, get_tracer

        tracer = get_tracer()
        links = tuple(r.trace for r in batch.requests if r.trace is not None)
        parent = links[0] if len(batch.requests) == 1 and links else None
        batch_span = tracer.start_span(
            "serve.batch",
            parent=parent,
            links=links if parent is None else (),
            model=self.name,
            batch=len(batch.requests),
        )
        with activate(batch_span):
            with tracer.span("worker.execute", replica=self.name):
                self._execute_plain(replica, batch)

    def stop(self, timeout: float = 5.0, *, drain: bool = False) -> None:
        """Close the batcher and join the workers.

        With ``drain=True`` (hot-swap, eviction) admission stops first
        and the workers finish everything already queued before the
        batcher closes, so no in-flight request is dropped.
        """
        if drain:
            self.batcher.seal(timeout)
        self._stop.set()
        self.batcher.close()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        self._replicas = []

    @property
    def running(self) -> bool:
        return any(t.is_alive() for t in self._threads)
