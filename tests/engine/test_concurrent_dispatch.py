"""Concurrency regression tests: the engine-build path.

The serving runtime calls layers from many worker threads at once;
these tests pin down what makes that safe: a cold engine is
compiled exactly once no matter how many threads race into
``QuantLinear.engine_for``, and the lazy BCQ solve is single-flight.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.engine import QuantSpec
from repro.nn.linear import QuantLinear


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
