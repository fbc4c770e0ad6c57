"""Unit tests for the workspace arenas (repro.core.workspace)."""

import threading

import numpy as np

from repro.core.workspace import CallScratch, Workspace


class TestAcquireRelease:
    def test_miss_then_hit_after_reset(self):
        # Workspace.reset is gone; returning the buffer with release is
        # what makes the next acquire of the same key a hit.
        ws = Workspace()
        a = ws.acquire("t", (4, 3), np.float32)
        assert a.shape == (4, 3) and a.dtype == np.float32
        assert ws.misses == 1 and ws.hits == 0
        ws.release(a)
        b = ws.acquire("t", (4, 3), np.float32)
        assert b is a
        assert ws.hits == 1

    def test_outstanding_buffers_are_distinct(self):
        ws = Workspace()
        a = ws.acquire("t", (2, 2), np.float64)
        b = ws.acquire("t", (2, 2), np.float64)
        assert a is not b

    def test_keys_distinguish_tag_shape_dtype(self):
        ws = Workspace()
        a = ws.acquire("a", (2, 2), np.float64)
        b = ws.acquire("b", (2, 2), np.float64)
        c = ws.acquire("a", (2, 3), np.float64)
        d = ws.acquire("a", (2, 2), np.float32)
        assert len({id(a), id(b), id(c), id(d)}) == 4
        assert ws.misses == 4

    def test_release_feeds_next_acquire_lifo(self):
        ws = Workspace()
        a = ws.acquire("t", (8,), np.float64)
        ws.release(a)
        b = ws.acquire("t", (8,), np.float64)
        assert b is a
        assert ws.hits == 1

    def test_release_is_idempotent(self):
        ws = Workspace()
        a = ws.acquire("t", (8,), np.float64)
        ws.release(a)
        ws.release(a)  # second release ignored
        b = ws.acquire("t", (8,), np.float64)
        c = ws.acquire("t", (8,), np.float64)
        assert b is a and c is not a

    def test_release_of_foreign_array_ignored(self):
        ws = Workspace()
        ws.release(np.zeros(3))  # not from this arena: no-op

    def test_zero_fills(self):
        ws = Workspace()
        a = ws.acquire("t", (4,), np.float64)
        a[:] = 7.0
        ws.release(a)
        b = ws.acquire("t", (4,), np.float64, zero=True)
        assert b is a
        assert np.array_equal(b, np.zeros(4))

    def test_stats_and_bytes(self):
        ws = Workspace()
        ws.acquire("t", (4,), np.float64)
        ws.acquire("u", (8,), np.float32)
        s = ws.stats()
        assert s["misses"] == 2
        assert s["buffers"] == 2
        assert s["bytes_resident"] == 4 * 8 + 8 * 4
        assert ws.bytes_resident == s["bytes_resident"]
        assert ws.buffer_count == 2

    def test_thread_safety_of_acquire(self):
        ws = Workspace()
        got = []

        def worker():
            got.append(id(ws.acquire("t", (16,), np.float64)))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # all outstanding buffers are distinct
        assert len(set(got)) == 16


class TestCallScratch:
    def test_reuses_within_call_without_burning_slots(self):
        scratch = CallScratch()
        a = scratch.get("t", (4, 4), np.float64)
        assert scratch.get("t", (4, 4), np.float64) is a
        assert scratch.get("u", (4, 4), np.float64) is not a

    def test_standalone_without_arena(self):
        scratch = CallScratch()
        a = scratch.get("t", (4,), np.float32)
        assert a.shape == (4,) and a.dtype == np.float32


class TestReleaseViews:
    def test_release_of_view_reclaims_root(self):
        ws = Workspace()
        a = ws.acquire("t", (6, 4), np.float64)
        ws.release(a[:, 0])  # a view, e.g. a kernel's vector column
        b = ws.acquire("t", (6, 4), np.float64)
        assert b is a
        assert ws.hits == 1
