"""Thread-parallel tile execution for the BiQGEMM query phase.

The paper (Section IV-D) notes both BiQGEMM and GEMM parallelize
linearly with tiling: one thread owns one or more LUT tiles, and "one
lookup table cannot be implemented by coordinating more than two
threads" -- i.e. table construction is not split across workers.  This
module follows that scheme: for each group tile, the tables are built
once, then row tiles are fanned out to a worker pool.  Row tiles write
disjoint output rows, so no synchronization is needed beyond the
barrier between group tiles.

One process-wide executor serves every thread count: it is sized to the
largest request seen and never re-created per count, and per-call
parallelism is bounded by submitting at most ``threads`` chunk jobs per
group tile (each chunk owns every ``threads``-th row tile).  A
long-lived serving process therefore holds exactly one pool no matter
how many thread counts its callers mix, and :func:`shutdown_pools` is
registered via :mod:`atexit` so interpreter exit never leaks executor
threads.

numpy's gather/accumulate kernels release the GIL for large blocks, so
plain Python threads provide genuine parallel speedup here.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro.core.kernel import _phase
from repro.core.profiling import PhaseProfiler
from repro.core.tiling import TileConfig
from repro.core.workspace import CallScratch

__all__ = ["run_tiles_threaded", "shutdown_pools"]

_POOL: ThreadPoolExecutor | None = None
_POOL_WORKERS = 0
# Executors superseded by growth.  They are NOT shut down on the spot:
# a concurrent matmul may have captured one and still be submitting row
# tiles to it, and submit-after-shutdown raises.  They sit here idle
# (growth is rare and monotone, so the list stays tiny) until
# shutdown_pools() -- called by tests and at interpreter exit -- joins
# them.
_RETIRED: list[ThreadPoolExecutor] = []
_POOL_LOCK = threading.Lock()


def _pool(threads: int) -> ThreadPoolExecutor:
    """The shared executor, grown (never shrunk) to *threads* workers."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < threads:
            if _POOL is not None:
                _RETIRED.append(_POOL)
            _POOL_WORKERS = max(threads, _POOL_WORKERS)
            _POOL = ThreadPoolExecutor(
                max_workers=_POOL_WORKERS, thread_name_prefix="biqgemm"
            )
        return _POOL


def shutdown_pools() -> None:
    """Tear down the shared worker pool and any executors superseded by
    growth (test hygiene / interpreter exit).  The next threaded call
    lazily builds a fresh pool."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pools, _POOL = [_POOL], None
        pools.extend(_RETIRED)
        _RETIRED.clear()
        _POOL_WORKERS = 0
    for pool in pools:
        if pool is not None:
            pool.shutdown(wait=True)


atexit.register(shutdown_pools)


def run_tiles_threaded(
    engine,
    y: np.ndarray,
    xhat: np.ndarray,
    keys: np.ndarray,
    alphas: np.ndarray,
    tiles: TileConfig,
    build_fn,
    query_impl: str,
    profiler: PhaseProfiler | None,
    threads: int,
) -> None:
    """Execute the LUT-stationary tile schedule with the shared pool.

    Mirrors ``BiQGemm._run_tiles`` but fans the row tiles of each group
    tile out as (at most) *threads* chunk jobs -- chunk ``i`` owns row
    tiles ``i, i+threads, ...`` -- so per-call parallelism equals
    *threads* even though the shared executor may be larger.  *engine*
    is the owning :class:`~repro.core.kernel.BiQGemm` (its
    ``_query_tile`` does the actual gather work).  Each chunk keeps its
    own :class:`~repro.core.workspace.CallScratch`, so workers never
    contend on (or alias) scratch buffers; the main thread builds the
    tables into its own.
    """
    m, batch = y.shape
    groups = xhat.shape[0]
    pool = _pool(threads)
    scratch = CallScratch()
    r_starts = list(range(0, m, tiles.tile_m))
    chunks = [
        r_starts[i :: threads] for i in range(min(threads, len(r_starts)))
    ]
    worker_scratch = [CallScratch() for _ in chunks]
    for g0 in range(0, groups, tiles.tile_g):
        g_sl = slice(g0, min(g0 + tiles.tile_g, groups))
        with _phase(profiler, "build"):
            q_tile = engine._build_tile(
                build_fn, xhat[g_sl], scratch, batch, y.dtype
            )

        def job(
            chunk: list[int],
            chunk_scratch: CallScratch,
            q_tile=q_tile,
            g_sl=g_sl,
        ) -> None:
            for r0 in chunk:
                r_sl = slice(r0, min(r0 + tiles.tile_m, m))
                with _phase(profiler, "query"):
                    engine._query_tile(
                        y,
                        q_tile,
                        keys,
                        alphas,
                        r_sl,
                        g_sl,
                        query_impl,
                        chunk_scratch,
                        tile_width=tiles.tile_g,
                    )

        futures = [
            pool.submit(job, chunk, chunk_scratch)
            for chunk, chunk_scratch in zip(chunks, worker_scratch)
        ]
        done, _pending = wait(futures)
        for fut in done:
            exc = fut.exception()
            if exc is not None:
                raise exc
