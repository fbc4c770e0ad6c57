"""Supervised multi-process serving.

One read-only copy of the compiled model lives in shared memory
(:mod:`~repro.serve.cluster.shm`); N worker processes map it and serve
predict batches and worker-resident decode sequences
(:mod:`~repro.serve.cluster.worker`); a supervisor owns health checks,
escalated kills, backoff respawn and the crash-loop breaker
(:mod:`~repro.serve.cluster.supervisor`); and the front-process
:class:`ClusterPool` is the one serving pool,
:class:`~repro.serve.pool.WorkerPool`, over runners that hand each batch
to a worker through one delivery loop -- redelivery after a death,
failover from a timed-out worker -- which decode prefills share
(:mod:`~repro.serve.cluster.pool`).
"""

from repro.serve.cluster.pool import (
    ClusterCompiled,
    ClusterConfig,
    ClusterPool,
    ModelUnroutableError,
)
from repro.serve.cluster.shm import SharedModel, attach, publish
from repro.serve.cluster.supervisor import Supervisor, WorkerHandle

__all__ = [
    "ClusterCompiled",
    "ClusterConfig",
    "ClusterPool",
    "ModelUnroutableError",
    "SharedModel",
    "Supervisor",
    "WorkerHandle",
    "attach",
    "publish",
]
