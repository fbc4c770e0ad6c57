"""Concurrency regression tests: plan cache and engine-build path.

The serving runtime dispatches from many worker threads at once; these
tests pin down the two invariants that makes safe: (1) concurrent
``plan_backend`` calls never corrupt the plan cache and always agree on
the choice, (2) a cold engine is compiled exactly once no matter how
many threads race into ``QuantLinear.engine_for``.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import (
    QuantSpec,
    batch_bucket,
    clear_plan_cache,
    plan_backend,
    plan_cache_stats,
)
from repro.nn.linear import QuantLinear


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestConcurrentPlanning:
    def test_many_threads_agree_and_cache_stays_consistent(self):
        spec = QuantSpec(bits=3, backend="auto")
        shapes = [(256, 256), (512, 256), (1024, 1024)]
        batches = [1, 4, 32, 128, 512]

        def plan_all(seed):
            rng = np.random.default_rng(seed)
            out = {}
            for _ in range(40):
                m, n = shapes[rng.integers(len(shapes))]
                b = batches[rng.integers(len(batches))]
                out[(m, n, b)] = plan_backend(
                    m, n, spec=spec, batch_hint=b
                )
            return out

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(plan_all, range(16)))

        # Every thread saw the same plan for the same key.
        merged = {}
        for result in results:
            for key, choice in result.items():
                assert merged.setdefault(key, choice) == choice
        # And each key matches a fresh single-threaded plan.
        for (m, n, b), choice in merged.items():
            assert choice == plan_backend(m, n, spec=spec, batch_hint=b)
        # Cache size is bounded by the distinct (shape, bucket) keys --
        # no duplicate or torn entries.
        distinct = {
            (m, n, batch_bucket(b)) for (m, n, b) in merged
        }
        assert plan_cache_stats()["size"] == len(distinct)

    def test_clear_during_planning_does_not_corrupt(self):
        spec = QuantSpec(bits=2, backend="auto")
        stop = threading.Event()

        def clearer():
            while not stop.is_set():
                clear_plan_cache()

        thread = threading.Thread(target=clearer)
        thread.start()
        try:
            for _ in range(200):
                assert plan_backend(512, 512, spec=spec, batch_hint=1) in (
                    "biqgemm",
                    "dense",
                )
        finally:
            stop.set()
            thread.join()


class TestConcurrentEngineBuild:
    def test_cold_engine_builds_exactly_once(self, rng):
        layer = QuantLinear(
            rng.standard_normal((32, 48)),
            spec=QuantSpec(bits=2, mu=4, backend="biqgemm"),
        )
        barrier = threading.Barrier(8)

        def build():
            barrier.wait()
            return layer.engine_for(1)

        with ThreadPoolExecutor(max_workers=8) as pool:
            engines = list(pool.map(lambda _: build(), range(8)))

        first = engines[0]
        assert all(engine is first for engine in engines)
        assert layer.compiled_backends == ("biqgemm",)

    def test_concurrent_calls_match_single_threaded_output(self, rng):
        layer = QuantLinear(
            rng.standard_normal((16, 24)),
            spec=QuantSpec(bits=2, mu=4, backend="auto"),
        )
        inputs = [rng.standard_normal((5, 24)) for _ in range(8)]
        expected = [layer(x) for x in inputs]
        barrier = threading.Barrier(8)

        def call(i):
            barrier.wait()
            return layer(inputs[i])

        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(call, range(8)))
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)

    def test_shared_request_bcq_solves_once(self, rng):
        """Replica layers share one EngineBuildRequest; the lazy BCQ
        solve must be single-flight.

        ``int8`` keeps the float weight and leaves BCQ unsolved (the
        only spec that reaches ``.bcq`` lazily), so the race is real
        here.
        """
        layer = QuantLinear(
            rng.standard_normal((12, 20)),
            spec=QuantSpec(bits=2, mu=4, backend="int8"),
        )
        clones = [layer.clone_shared() for _ in range(6)]
        barrier = threading.Barrier(6)

        def solve(clone):
            barrier.wait()
            return clone.bcq

        with ThreadPoolExecutor(max_workers=6) as pool:
            tensors = list(pool.map(solve, clones))
        assert all(t is tensors[0] for t in tensors)
