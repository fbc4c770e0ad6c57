"""The serving pool: dispatcher threads executing coalesced batches.

One :class:`WorkerPool` serves one model from one
:class:`~repro.serve.batcher.Batcher` on both serving tiers.  It owns a
runner per slot and one daemon thread per runner that pulls batches,
runs the runner once per batch, splits the outputs back per request and
counts the outcome.  Here each runner is a warmed
:class:`~repro.api.CompiledModel` replica
(:meth:`~repro.api.CompiledModel.clone`: compiled engines shared,
mutable bookkeeping private); numpy's kernels release the GIL for
large blocks, so two workers overlap usefully even in-process.  The
process tier, :class:`~repro.serve.cluster.ClusterPool`, is this pool
over runners that deliver each batch to a worker process instead.
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
    """N daemon threads serving one model from one batcher.

    The server reaches either tier through the same surface:
    :attr:`metric_sets` (published under the model's name),
    :attr:`quarantined` (always ``None`` here),
    :meth:`cluster_stats` (``None`` here) and :meth:`decode_target`
    (what the model's decode scheduler runs).
    """

    #: Why the model is unroutable; only a process pool can be.
    quarantined: str | None = None
    _thread_role = "worker"

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
        self._stop = threading.Event()

    @property
    def metric_sets(self) -> tuple:
        return (self.batcher.metrics,)

    def cluster_stats(self) -> dict | None:
        return None

    def decode_target(self):
        """The model the decode scheduler steps: the compiled model
        itself, in this process."""
        return self._compiled

    # -- lifecycle -----------------------------------------------------
    def _open(self) -> list:
        """One runner per slot: warmed replicas sharing the compiled
        engines, so worker threads never contend on another worker's
        layer bookkeeping."""
        return self._compiled.replicate(self.workers)

    def _close(self, timeout: float) -> None:
        """Release what :meth:`_open` acquired, after the threads have
        joined."""

    def start(self) -> "WorkerPool":
        """Open one runner per slot and start a thread on each."""
        if self._threads:
            raise RuntimeError(f"pool {self.name!r} is already started")
        self._stop.clear()
        for i, runner in enumerate(self._open()):
            thread = threading.Thread(
                target=self._run,
                args=(runner,),
                name=f"repro-{self._thread_role}-{self.name}-{i}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def stop(self, timeout: float = 5.0, *, drain: bool = False) -> None:
        """Close the batcher, join the threads, release the runners.

        With ``drain=True`` (hot-swap, eviction) admission stops first
        and the threads finish everything already queued before the
        batcher closes, so no in-flight request is dropped.
        """
        if drain:
            self.batcher.seal(timeout)
        self._stop.set()
        self.batcher.close()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        self._close(timeout)

    @property
    def running(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    # -- the batch loop ------------------------------------------------
    def _run(self, runner) -> None:
        while not self._stop.is_set():
            batch = self.batcher.next_batch(timeout=_IDLE_POLL_SECONDS)
            if batch is None:
                continue
            if _obs.TRACING:
                self._execute_traced(runner, batch)
            else:
                self._execute(runner, batch)

    def _execute(self, runner, batch: Batch) -> None:
        try:
            outputs = runner(batch.stacked())
            done = time.monotonic()
            batch.resolve(outputs)
        except BaseException as exc:  # noqa: BLE001 -- must reach callers
            batch.fail(exc)
            done = None
        self._record_outcome(batch, done)

    def _execute_traced(self, runner, batch: Batch) -> None:
        """:meth:`_execute` under a span tree.

        The fan-in point of the trace: N request spans (each with its
        own trace id) converge on one model execution.  The
        ``serve.batch`` span **links** every request's queue-span
        context and, when the batch serves exactly one request, adopts
        that request's trace id as parent -- so a single-request trace
        stays one connected tree, and a coalesced batch is reachable
        from each of its requests via the links.  ``worker.execute`` is
        activated inside it on this thread, which is what the
        per-layer ``engine.matmul`` spans (or, on the process tier,
        ``cluster.dispatch``) parent onto.
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
                self._execute(runner, batch)

    def _record_outcome(self, batch: Batch, done: float | None) -> None:
        """Count a finished batch's requests on the batcher's metrics
        and the SLO windows: served at monotonic time *done*, or failed
        when *done* is ``None``."""
        metrics = self.batcher.metrics
        if done is None:
            metrics.errors.inc(len(batch))
        else:
            metrics.served.inc(len(batch))
            for request in batch.requests:
                # The queue span's trace id rides with the request
                # across threads; attaching it here is what links a
                # latency-bucket exemplar on /metrics back to the
                # request's trace.
                trace = request.trace
                metrics.latency.record(
                    done - request.enqueue_time,
                    trace_id=trace.trace_id if trace is not None else None,
                )
        if _obs.SLO:
            from repro.obs import slo as _slo

            for request in batch.requests:
                _slo.record_request(
                    self.name,
                    0.0 if done is None else done - request.enqueue_time,
                    ok=done is not None,
                )
