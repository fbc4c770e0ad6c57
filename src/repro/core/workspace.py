"""Workspace arenas for the KV caches, and per-call kernel scratch.

The KV caches (:mod:`repro.gen.cache`, the serving sequence tables and
the cluster workers) grow per-layer key/value blocks on a long-lived
:class:`Workspace`, a shape/dtype-keyed arena with free lists:

- :meth:`Workspace.acquire` hands out a buffer for a ``(tag, shape,
  dtype)`` key: a released one of that key when there is one (a
  **hit**), a new allocation otherwise (a **miss**).
- :meth:`Workspace.release` returns a buffer; a cache releases its
  blocks on close.
- Buffers are never returned to the OS; :attr:`bytes_resident` is the
  arena's footprint, exported to metrics alongside the hit/miss
  counters.

``acquire`` and ``release`` are locked, so threads may share an arena.

:class:`CallScratch` is unrelated to the arena: a per-call (or
per-worker-thread) cache so the numpy kernel's tile loop allocates its
table, gather and accumulator buffers once per call instead of once per
tile.
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
    """Shape/dtype-keyed buffer arena with LIFO free lists.

    A buffer stays alive, and distinct from every other buffer handed
    out, until it is released; the next same-keyed acquire then reuses
    it.
    """

    def __init__(self, name: str = "workspace"):
        self.name = str(name)
        self._lock = threading.Lock()
        # key -> available buffers (free list, popped LIFO).
        self._free: dict[_Key, list[np.ndarray]] = {}
        # id(buffer) -> (key, buffer) for buffers currently handed out.
        # Holding the buffer keeps its id from being reused while it
        # is lent, and keeps what the arena counts in bytes_resident.
        self._borrowed: dict[int, tuple[_Key, np.ndarray]] = {}
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
        :meth:`release`.  With ``zero=True`` the buffer is zero-filled
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
                self._nbytes += buf.nbytes
                self.misses += 1
            self._borrowed[id(buf)] = (key, buf)
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
                entry = self._borrowed.pop(id(node), None)
                if entry is not None:
                    key, root = entry
                    self._free.setdefault(key, []).append(root)
                    return
                node = node.base

    @property
    def bytes_resident(self) -> int:
        """Total bytes of buffers held by the arena."""
        with self._lock:
            return self._nbytes

    @property
    def buffer_count(self) -> int:
        """Number of distinct buffers allocated so far."""
        return self.misses

    def stats(self) -> dict:
        """JSON-able counters for telemetry (hits/misses/bytes)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "bytes_resident": self._nbytes,
                "buffers": self.misses,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"Workspace({self.name!r}, buffers={s['buffers']}, "
            f"bytes={s['bytes_resident']}, hits={s['hits']}, "
            f"misses={s['misses']})"
        )


class CallScratch:
    """Per-call buffer cache for the numpy kernel's tile loop.

    A tile loop needs the same scratch buffer (tables, gathered block,
    accumulator) for every tile of a call; ``CallScratch`` allocates
    each distinct ``(tag, shape, dtype)`` once and reuses it for the
    rest of the call.  Not thread-safe by design: the threaded tile
    path gives each worker its own instance.
    """

    __slots__ = ("_bufs",)

    def __init__(self):
        self._bufs: dict[_Key, np.ndarray] = {}

    def get(self, tag: str, shape, dtype) -> np.ndarray:
        # Raw (tag, shape, dtype) key: a CallScratch is private to one
        # call (or one worker), whose callers spell dtypes consistently,
        # so skipping normalization is safe and measurably faster.
        key = (tag, shape, dtype)
        buf = self._bufs.get(key)
        if buf is None:
            buf = self._bufs[key] = np.empty(shape, dtype=dtype)
        return buf
