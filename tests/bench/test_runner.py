"""Unit tests for timing helpers (repro.bench.runner)."""

import pytest

from repro.bench.runner import (
    BLOCK_CALLS, BLOCK_WARMUP, interleaved_ratio, time_callable,
)


class TestTimeCallable:
    def test_returns_positive(self):
        t = time_callable(lambda: sum(range(1000)), repeats=2, warmup=0)
        assert t > 0

    def test_calls_expected_number_of_times(self):
        calls = []
        time_callable(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            time_callable(lambda: None, repeats=1, warmup=-1)


class _DriftingHost:
    """A stubbed clock: each call of :meth:`call` advances it by a cost
    that drifts linearly with the call count, times *tax* while the
    setting is on."""

    def __init__(self, drift: float, tax: float = 1.0):
        self.now = 0.0
        self.calls = 0
        self.drift = drift
        self.tax = tax
        self.on = False
        self.switches = []

    def timer(self) -> float:
        return self.now

    def call(self) -> None:
        cost = 1e-3 * (1.0 + self.drift * self.calls)
        self.now += cost * (self.tax if self.on else 1.0)
        self.calls += 1

    def switch(self, on: bool) -> None:
        self.on = on
        self.switches.append(on)


class TestInterleavedRatio:
    @pytest.mark.parametrize("drift", [0.01, -0.002, 0.0])
    def test_drift_cannot_push_the_ratio_below_one(self, drift):
        host = _DriftingHost(drift)
        ratio, off, on = interleaved_ratio(
            host.call, host.switch, rounds=3, timer=host.timer,
        )
        assert ratio == pytest.approx(1.0, abs=1e-9)
        assert off == pytest.approx(on, rel=1e-9)
        # Timed off then on instead, the same drift reads as a gain or
        # a cost.
        naive = _DriftingHost(drift)
        sequential = []
        for on in (False, True):
            naive.switch(on)
            t0 = naive.timer()
            for _ in range(3 * 2 * (BLOCK_WARMUP + BLOCK_CALLS)):
                naive.call()
            sequential.append(naive.timer() - t0)
        assert (sequential[1] / sequential[0] < 1.0) == (drift < 0)

    @pytest.mark.parametrize("drift", [0.01, -0.002])
    def test_a_real_cost_reads_through_drift(self, drift):
        host = _DriftingHost(drift, tax=1.05)
        ratio, _, _ = interleaved_ratio(
            host.call, host.switch, rounds=3, timer=host.timer,
        )
        assert ratio == pytest.approx(1.05, rel=1e-3)

    def test_switches_per_block_change_and_ends_off(self):
        host = _DriftingHost(0.0)
        interleaved_ratio(
            host.call, host.switch, rounds=2, timer=host.timer,
        )
        assert host.switches == [False, True, False, True, False, False]
        assert host.calls == 2 * 4 * (BLOCK_WARMUP + BLOCK_CALLS)
