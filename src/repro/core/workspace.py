"""Workspace arenas: reusable scratch buffers for long-lived state and
the engine-level hot loop.

Two users keep an arena for the life of a process or a sequence:

- the KV caches (:mod:`repro.gen.cache`, the serving sequence tables
  and the cluster workers) grow per-layer key/value blocks on a
  long-lived arena that is never reset -- caches release their blocks
  on close;
- :meth:`repro.core.kernel.BiQGemm.matmul` takes an optional
  ``workspace=`` arena for its padded input, lookup tables, gathers and
  accumulator, so a steady-state engine call loop performs no numpy
  allocations (the gated ``engine_alloc_events == 0``).

:class:`Workspace` is a shape/dtype-keyed arena with bump-pointer reset
semantics:

- :meth:`Workspace.acquire` hands out a buffer for a ``(tag, shape,
  dtype)`` key.  The first request per key allocates (a **miss**);
  after :meth:`Workspace.reset`, repeat requests return the same
  buffers in the same order (**hits**).
- :meth:`Workspace.reset` marks every buffer available again; buffers
  handed out since the last reset stay valid (and mutually distinct)
  until the next one.
- Buffers are never returned to the OS; :attr:`bytes_resident` is the
  arena's footprint, exported to metrics alongside the hit/miss
  counters.

:class:`CallScratch` is the within-call companion: a tiny per-call (or
per-worker-thread) cache so a tile loop that needs the same table /
accumulator buffer for every tile acquires it from the arena exactly
once per call instead of once per tile.

Thread model: one arena serves one caller at a time.  ``acquire``
itself is locked, so the *threaded* tile path of a single call may
acquire worker-local buffers concurrently.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

__all__ = [
    "CallScratch",
    "Workspace",
    "aggregate_stats",
]

_Key = tuple[str, tuple[int, ...], np.dtype]

# Every live arena, for the process-wide metrics collector.  Weak so
# registration never extends an arena's lifetime: a closed sequence's
# arena drops out of the aggregate on its own.
_LIVE: "weakref.WeakSet[Workspace]" = weakref.WeakSet()
_LIVE_LOCK = threading.Lock()


def aggregate_stats() -> dict:
    """Hit/miss/footprint totals across every live arena.

    The pull-style feed for ``repro_workspace_*`` metrics
    (:mod:`repro.obs.metrics`): summed at scrape time so the arenas'
    hot ``acquire`` path carries no extra bookkeeping.
    """
    with _LIVE_LOCK:
        arenas = list(_LIVE)
    totals = {
        "arenas": len(arenas),
        "hits": 0,
        "misses": 0,
        "bytes_resident": 0,
        "buffers": 0,
    }
    for arena in arenas:
        stats = arena.stats()
        totals["hits"] += stats["hits"]
        totals["misses"] += stats["misses"]
        totals["bytes_resident"] += stats["bytes_resident"]
        totals["buffers"] += stats["buffers"]
    return totals


class Workspace:
    """Shape/dtype-keyed scratch-buffer arena with free lists and an
    explicit request-boundary reset.

    Two lifetimes coexist on one arena:

    - **call scratch** (lookup tables, gathered blocks, accumulators):
      dead the moment its kernel call returns.  Callers
      :meth:`release` these (usually via :meth:`CallScratch.close`),
      putting them back on their free list LIFO -- so the next call's
      same-shaped scratch reuses the cache-hot buffer the previous one
      just warmed.
    - **held state** (kernel outputs, KV blocks): stays alive, and
      distinct from every other buffer, until released or until
      :meth:`reset`.
    """

    def __init__(self, name: str = "workspace"):
        self.name = str(name)
        self._lock = threading.Lock()
        # key -> available buffers (free list, popped LIFO).
        self._free: dict[_Key, list[np.ndarray]] = {}
        # key -> every buffer ever allocated for it (reset source).
        self._all: dict[_Key, list[np.ndarray]] = {}
        # id(buffer) -> key for buffers currently handed out.
        self._borrowed: dict[int, _Key] = {}
        self.hits = 0
        self.misses = 0
        self._nbytes = 0
        with _LIVE_LOCK:
            _LIVE.add(self)

    @staticmethod
    def _key(tag: str, shape, dtype) -> _Key:
        # Hot path: tuple/np.dtype are cheap normalizations (np.dtype
        # returns a cached singleton); anything string-y here shows up
        # directly in serving p50.
        if type(shape) is not tuple:
            shape = tuple(shape)
        return (tag, shape, np.dtype(dtype))

    def acquire(
        self, tag: str, shape, dtype=np.float64, *, zero: bool = False
    ) -> np.ndarray:
        """A buffer of *shape*/*dtype* for purpose *tag*.

        Pops the key's free list (a **hit**) or allocates (a **miss**).
        Buffers handed out are mutually distinct until returned by
        :meth:`release` or :meth:`reset`, so a steady-state request
        loop performs zero numpy allocations after its first (warmup)
        iteration.  With ``zero=True`` the buffer is zero-filled
        (reused buffers hold stale values otherwise).
        """
        key = self._key(tag, shape, dtype)
        with self._lock:
            free = self._free.get(key)
            if free:
                buf = free.pop()
                self.hits += 1
            else:
                buf = np.empty(key[1], dtype=key[2])
                self._all.setdefault(key, []).append(buf)
                self._nbytes += buf.nbytes
                self.misses += 1
            self._borrowed[id(buf)] = key
        if zero:
            buf[...] = 0
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Return *buf* (an array from :meth:`acquire`, or a view of
        one -- e.g. the vector column a kernel returned) for reuse.

        The caller must be done reading and writing the whole
        underlying buffer: the very next same-shaped acquire
        receives it.  Arrays this arena does not currently lend out are
        ignored, so release is idempotent.
        """
        with self._lock:
            node = buf
            while isinstance(node, np.ndarray):
                key = self._borrowed.pop(id(node), None)
                if key is not None:
                    # id(node) keys _borrowed, so node is the acquired
                    # root array itself, not a view.
                    self._free.setdefault(key, []).append(node)
                    return
                node = node.base

    def reset(self) -> None:
        """Make every buffer available again.

        Arrays handed out before the reset must no longer be read or
        written by their previous holders.
        """
        with self._lock:
            self._borrowed.clear()
            for key, bufs in self._all.items():
                free = self._free.setdefault(key, [])
                free.clear()
                free.extend(bufs)

    @property
    def bytes_resident(self) -> int:
        """Total bytes of buffers held by the arena."""
        with self._lock:
            return self._nbytes

    @property
    def buffer_count(self) -> int:
        """Number of distinct buffers allocated so far."""
        with self._lock:
            return sum(len(bufs) for bufs in self._all.values())

    def stats(self) -> dict:
        """JSON-able counters for telemetry (hits/misses/bytes)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "bytes_resident": self._nbytes,
                "buffers": sum(len(b) for b in self._all.values()),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"Workspace({self.name!r}, buffers={s['buffers']}, "
            f"bytes={s['bytes_resident']}, hits={s['hits']}, "
            f"misses={s['misses']})"
        )


class CallScratch:
    """Per-call buffer cache in front of an (optional) arena.

    A tile loop needs the same scratch buffer (tables, gathered block,
    accumulator) for every tile of a call; acquiring from the arena per
    tile would burn one arena slot per tile.  ``CallScratch`` acquires
    each distinct ``(tag, shape, dtype)`` once -- from the arena when
    one is active, from ``np.empty`` otherwise -- and reuses it for the
    rest of the call; :meth:`close` then releases everything back to
    the arena so the next call's scratch lands in the same, still
    cache-hot memory.  Not thread-safe by design: the threaded tile
    path gives each worker its own instance.
    """

    __slots__ = ("_ws", "_bufs")

    def __init__(self, workspace: Workspace | None = None):
        self._ws = workspace
        self._bufs: dict[_Key, np.ndarray] = {}

    def get(
        self, tag: str, shape, dtype, *, zero: bool = False
    ) -> np.ndarray:
        # Raw (tag, shape, dtype) key: a CallScratch is private to one
        # call (or one worker), whose callers spell dtypes consistently,
        # so skipping normalization is safe and measurably faster.
        key = (tag, shape, dtype)
        buf = self._bufs.get(key)
        if buf is None:
            if self._ws is not None:
                buf = self._ws.acquire(tag, shape, dtype)
            else:
                buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        if zero:
            buf[...] = 0
        return buf

    # reshape_input accepts either a Workspace or a CallScratch through
    # its ``workspace`` parameter; this alias provides the shared
    # acquire spelling (call-scoped here, request-scoped on Workspace).
    def acquire(
        self, tag: str, shape, dtype=np.float64, *, zero: bool = False
    ) -> np.ndarray:
        return self.get(tag, shape, dtype, zero=zero)

    def close(self) -> None:
        """Release every cached buffer back to the arena (call end).

        The buffers must all be dead: anything that outlives the call
        (outputs, activations) belongs on the arena directly, not in a
        CallScratch.  No-op without an arena.
        """
        if self._ws is not None:
            for buf in self._bufs.values():
                self._ws.release(buf)
        self._bufs.clear()
