"""KV caches: the resident state of an autoregressive sequence.

BiQGEMM's headline regime is batch-1 GEMV decoding over a resident
quantized model (paper Fig. 10): each token step re-projects only the
*new* token and attends against the keys/values of everything already
generated.  This module holds that state -- one :class:`KVCache` per
attention site per sequence -- backed by a long-lived
:class:`~repro.core.workspace.Workspace` arena so thousands of decode
steps allocate nothing after the cache reaches its bucket capacity.

Capacity grows by power-of-two buckets (:func:`cache_bucket`): a grown
cache acquires the next bucket from the arena, copies the prefix, and
releases the old block, so concurrent sequences recycle each other's
outgrown blocks instead of churning the allocator.

Bit-identity contract: callers attend against :meth:`KVCache.view`,
an exact-length view of the bucket-capacity block.  The attention
products (:mod:`repro.nn.attention`) and softmax
(:mod:`repro.nn.functional`) are stride- and length-invariant, so the
padding beyond ``length`` never influences a single output bit -- it
is zero-filled anyway (defensive hygiene against NaN poisoning, not a
correctness requirement).
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int

__all__ = ["KVCache", "cache_bucket"]

#: Smallest capacity a cache starts at; buckets double from here.
MIN_BUCKET = 32


def cache_bucket(length: int, *, base: int = MIN_BUCKET) -> int:
    """The bucket capacity holding *length* positions: the smallest
    power-of-two multiple of *base* at or above it."""
    check_positive_int(length, "length")
    capacity = base
    while capacity < length:
        capacity *= 2
    return capacity


class KVCache:
    """Cached K/V blocks of one attention site for one sequence.

    Parameters
    ----------
    heads, head_dim:
        The attention geometry; blocks are ``(heads, capacity,
        head_dim)``.
    workspace:
        Optional :class:`~repro.core.workspace.Workspace` backing the
        blocks.  This must be a *long-lived* arena (e.g. the compiled
        model's KV arena) that is never ``reset()``: a reset would hand
        a live sequence's history to another borrower.  Growth and
        :meth:`close` use ``release()`` only, so many sequences share
        one arena safely.
    reserve:
        Initial capacity hint; rounded up to a bucket.
    frozen:
        Build the cache write-once (cross-attention: populated from the
        encoder memory at prefill, then only read).

    Not thread-safe: one sequence's steps are totally ordered by the
    scheduler.
    """

    def __init__(
        self,
        heads: int,
        head_dim: int,
        *,
        workspace=None,
        reserve: int = MIN_BUCKET,
        dtype=np.float64,
        frozen: bool = False,
    ):
        check_positive_int(heads, "heads")
        check_positive_int(head_dim, "head_dim")
        self.heads = int(heads)
        self.head_dim = int(head_dim)
        self.dtype = np.dtype(dtype)
        self._workspace = workspace
        self._length = 0
        self._capacity = cache_bucket(reserve)
        self._k = self._acquire(self._capacity)
        self._v = self._acquire(self._capacity)
        self.frozen = bool(frozen)
        self._closed = False

    def _acquire(self, capacity: int) -> np.ndarray:
        shape = (self.heads, capacity, self.head_dim)
        if self._workspace is not None:
            return self._workspace.acquire(
                "gen.kv", shape, self.dtype, zero=True
            )
        return np.zeros(shape, dtype=self.dtype)

    def _release(self, buf: np.ndarray) -> None:
        if self._workspace is not None:
            self._workspace.release(buf)

    @property
    def length(self) -> int:
        """Positions currently cached."""
        return self._length

    @property
    def capacity(self) -> int:
        """Positions the current bucket holds before the next growth."""
        return self._capacity

    @property
    def nbytes(self) -> int:
        """Resident bytes of the two blocks."""
        return self._k.nbytes + self._v.nbytes

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append projected K/V blocks of shape ``(heads, s, head_dim)``.

        One call per prefill (``s`` = prompt length) and one per decode
        step (``s`` = 1); grows to the next bucket when full.
        """
        if self._closed:
            raise RuntimeError("cache is closed")
        if self.frozen:
            raise RuntimeError(
                "cache is frozen (write-once cross-attention memory)"
            )
        k = np.asarray(k)
        v = np.asarray(v)
        expect = (self.heads, k.shape[1], self.head_dim)
        if k.shape != expect or v.shape != expect:
            raise ValueError(
                f"k/v must be (heads={self.heads}, s, "
                f"head_dim={self.head_dim}); got {k.shape} / {v.shape}"
            )
        need = self._length + k.shape[1]
        if need > self._capacity:
            self._grow(cache_bucket(need))
        self._k[:, self._length : need] = k
        self._v[:, self._length : need] = v
        self._length = need

    def _grow(self, capacity: int) -> None:
        new_k = self._acquire(capacity)
        new_v = self._acquire(capacity)
        new_k[:, : self._length] = self._k[:, : self._length]
        new_v[:, : self._length] = self._v[:, : self._length]
        self._release(self._k)
        self._release(self._v)
        self._k, self._v = new_k, new_v
        self._capacity = capacity

    def freeze(self) -> None:
        """Seal the cache read-only (after cross-attention prefill)."""
        self.frozen = True

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact-length ``(k, v)`` views, each ``(heads, length,
        head_dim)``, of the capacity blocks."""
        if self._closed:
            raise RuntimeError("cache is closed")
        return self._k[:, : self._length], self._v[:, : self._length]

    def close(self) -> None:
        """Return the blocks to the arena (sequence finished).

        Idempotent.  The cache must not be read afterwards.
        """
        if self._closed:
            return
        self._closed = True
        self._release(self._k)
        self._release(self._v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else (
            "frozen" if self.frozen else "open"
        )
        return (
            f"KVCache(heads={self.heads}, head_dim={self.head_dim}, "
            f"length={self._length}/{self._capacity}, {state})"
        )
