"""Dynamic-batching inference runtime over compiled model artifacts.

BiQGEMM builds its lookup tables from each input column and amortizes
them over the output rows (paper Section III), so a batch of requests
buys no table reuse.  What coalescing concurrent single requests into
power-of-two micro-batches does amortize is the per-call cost outside
the kernel -- dispatch, Python glue and, in cluster mode, IPC -- and
the :mod:`repro.engine` planner's crossovers are batch-dependent too.
This package is that serving runtime:

- :class:`ModelStore` -- named+versioned compiled models loaded from v3
  artifacts, LRU memory budgeting, atomic hot-swap on reload;
- :class:`Batcher` -- bounded request queue with dynamic micro-batching
  toward :func:`repro.engine.batch_buckets` targets (wait at most
  ``max_latency_ms``), backpressure via :class:`QueueFullError`;
- :class:`WorkerPool` -- the one batch loop: a thread per slot running
  each batch on a warmed :meth:`~repro.api.CompiledModel.clone`
  replica, or, as :class:`repro.serve.cluster.ClusterPool`, on a
  supervised worker process;
- :class:`SequenceScheduler` -- continuous batching for autoregressive
  decode: concurrent :class:`GenerationStream` s coalesce their
  per-token steps into shared batched GEMV ticks, with per-sequence
  deadlines, cancellation and the same backpressure signal;
- :class:`Server` -- synchronous in-process frontend plus a stdlib
  ``http.server`` JSON API (``/predict``, streaming ``/generate``,
  ``/models``, ``/healthz``, ``/metrics``, ``/slo``, ``/profile``),
  with SLO burn-rate alerts and 429 + ``Retry-After`` load shedding
  while an SLO pages, when ``ServeConfig.slos`` is set
  (:mod:`repro.obs.slo`).

Serving counts have one home: each model's batcher, decode scheduler
and cluster pool record into their own instruments
(:class:`~repro.serve.batcher.ServeMetrics`,
:class:`~repro.serve.sequences.GenMetrics`,
:class:`~repro.serve.cluster.supervisor.ClusterMetrics`) -- latency
quantiles, queue depth, batch sizes, the LUT-amortization ratio, decode
tokens/s, inter-token latency and worker lifecycle.  The server puts
those same objects in the :mod:`repro.obs.metrics` registry under a
``model`` label, so the JSON and Prometheus renderings of
``/metrics`` read one set of numbers.

Quick start (see also ``examples/serve_http.py`` and ``python -m
repro.serve --help``)::

    from repro.api import QuantConfig, quantize
    compiled = quantize(model, QuantConfig(bits=3)).compile(batch_hint=1)
    server = compiled.serve(workers=2, max_batch=64)   # started
    y = server.predict("default", x)                   # coalesced
    server.serve_http(port=8000)                       # same, over HTTP
    server.stop()
"""

from repro.serve.batcher import (
    Batch,
    Batcher,
    BatcherClosed,
    PendingRequest,
    QueueFullError,
)
from repro.serve.pool import WorkerPool
from repro.serve.sequences import GenerationStream, SequenceScheduler
from repro.serve.server import AdmissionShedError, ServeConfig, Server
from repro.serve.store import ModelNotFound, ModelStore, StoredModel

__all__ = [
    "AdmissionShedError",
    "Batch",
    "Batcher",
    "BatcherClosed",
    "GenerationStream",
    "ModelNotFound",
    "ModelStore",
    "PendingRequest",
    "QueueFullError",
    "SequenceScheduler",
    "ServeConfig",
    "Server",
    "StoredModel",
    "WorkerPool",
]
