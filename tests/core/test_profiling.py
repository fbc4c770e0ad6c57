"""Unit tests for phase profiling (repro.core.profiling)."""

import time

import numpy as np
import pytest

from repro.core.profiling import PHASES, PhaseProfiler


class TestPhaseProfiler:
    def test_initial_state_zero(self):
        prof = PhaseProfiler()
        assert prof.total == 0.0
        assert prof.proportions() == {p: 0.0 for p in PHASES}

    def test_phase_records_time(self):
        prof = PhaseProfiler()
        with prof.phase("build"):
            time.sleep(0.003)
        assert prof.seconds["build"] >= 0.002
        assert prof.calls["build"] == 1

    def test_add_direct(self):
        prof = PhaseProfiler()
        prof.add("query", 1.5)
        prof.add("query", 0.5)
        assert prof.seconds["query"] == 2.0
        assert prof.calls["query"] == 2

    def test_proportions_sum_to_one(self):
        prof = PhaseProfiler()
        prof.add("build", 1.0)
        prof.add("query", 2.0)
        prof.add("replace", 1.0)
        frac = prof.proportions()
        assert sum(frac.values()) == pytest.approx(1.0)
        assert frac["query"] == pytest.approx(0.5)

    def test_unknown_phase_rejected(self):
        prof = PhaseProfiler()
        with pytest.raises(ValueError, match="unknown phase"):
            prof.add("decode", 1.0)
        with pytest.raises(ValueError, match="unknown phase"):
            with prof.phase("decode"):
                pass

    def test_reset(self):
        prof = PhaseProfiler()
        prof.add("build", 1.0)
        prof.reset()
        assert prof.total == 0.0
        assert prof.calls["build"] == 0

    def test_merge(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        a.add("build", 1.0)
        b.add("build", 2.0)
        b.add("query", 3.0)
        a.merge(b)
        assert a.seconds["build"] == 3.0
        assert a.seconds["query"] == 3.0

    def test_phase_records_on_exception(self):
        prof = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with prof.phase("query"):
                raise RuntimeError("boom")
        assert prof.calls["query"] == 1

    def test_thread_safety_smoke(self):
        import threading

        prof = PhaseProfiler()

        def work():
            for _ in range(100):
                prof.add("query", 0.001)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert prof.calls["query"] == 400
        assert prof.seconds["query"] == pytest.approx(0.4)


class TestMeasureHotLoop:
    def test_allocating_loop_reports_events(self):
        from repro.core.profiling import measure_hot_loop

        report = measure_hot_loop(
            lambda: np.zeros(1 << 16), warmups=1, repeats=3
        )
        assert report["alloc_events"] == 3
        assert report["peak_new_bytes"] >= 1 << 18

    def test_allocation_free_loop_reports_zero(self):
        from repro.core.profiling import measure_hot_loop

        buf = np.empty(1 << 14)

        def hot():
            buf[...] = 1.0

        report = measure_hot_loop(hot, warmups=1, repeats=3)
        assert report["alloc_events"] == 0

    def test_argument_validation(self):
        from repro.core.profiling import measure_hot_loop

        with pytest.raises(ValueError):
            measure_hot_loop(lambda: None, repeats=0)

    def test_kernel_phase_allocations_observable(self, rng):
        """tracemalloc sees the kernel's per-call churn: every call
        allocates its tables, gathers and output."""
        from repro.core.kernel import BiQGemm
        from repro.core.profiling import measure_hot_loop
        from tests.conftest import random_binary

        engine = BiQGemm.from_binary(random_binary(rng, (64, 128)), mu=8)
        x = rng.standard_normal((128, 4))
        report = measure_hot_loop(
            lambda: engine.matmul(x), min_alloc_bytes=1
        )
        assert report["alloc_events"] == report["calls"]
        assert report["peak_new_bytes"] > 64 * 4 * 8  # beyond the output
