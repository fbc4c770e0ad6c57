"""SLO engine: spec validation, burn windows, the alert state machine."""

import pytest

from repro.obs import runtime as rt
from repro.obs.slo import (
    SLOEngine,
    SLOSpec,
    _BurnWindow,
    clear_engine,
    get_engine,
    record_request,
    set_engine,
)


def _latency_spec(**overrides):
    base = dict(
        name="lat",
        kind="latency",
        threshold_s=0.05,
        objective=0.9,  # 10% error budget
        fast_window_s=10.0,
        slow_window_s=60.0,
        warn_burn=2.0,
        page_burn=8.0,
    )
    base.update(overrides)
    return SLOSpec(**base)


class _FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSLOSpec:
    def test_validates_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SLOSpec(name="x", kind="throughput")

    def test_latency_needs_threshold(self):
        with pytest.raises(ValueError, match="threshold_s"):
            SLOSpec(name="x", kind="latency")

    def test_tokens_per_s_needs_floor(self):
        with pytest.raises(ValueError, match="min_tokens_per_s"):
            SLOSpec(name="x", kind="tokens_per_s")

    def test_windows_must_be_ordered(self):
        with pytest.raises(ValueError, match="window"):
            _latency_spec(fast_window_s=100.0, slow_window_s=10.0)

    def test_burns_must_be_ordered(self):
        with pytest.raises(ValueError, match="burn"):
            _latency_spec(warn_burn=8.0, page_burn=2.0)

    def test_matches_wildcard_and_exact(self):
        assert _latency_spec(model="*").matches("anything")
        assert _latency_spec(model="m").matches("m")
        assert not _latency_spec(model="m").matches("other")

    def test_to_dict_carries_kind_fields(self):
        d = _latency_spec().to_dict()
        assert d["threshold_s"] == 0.05
        spec = SLOSpec(name="t", kind="tokens_per_s", min_tokens_per_s=500)
        assert spec.to_dict()["min_tokens_per_s"] == 500


class TestBurnWindow:
    def test_rates_are_windowed(self):
        w = _BurnWindow(60.0)
        w.record(100.0, bad=True)
        w.record(130.0, bad=False)
        assert w.rates(130.0, 60.0) == (2, 1)
        # The bad event at t=100 falls outside a 10s trailing window.
        assert w.rates(130.0, 10.0) == (1, 0)

    def test_old_buckets_expire(self):
        w = _BurnWindow(10.0)
        w.record(100.0, bad=True)
        for t in range(200, 212):
            w.record(float(t), bad=False)
        total, bad = w.rates(211.0, 10.0)
        assert bad == 0  # the t=100 bucket is long gone
        assert total >= 10


class TestStateMachine:
    def test_ok_to_warn_to_page_and_recovery(self):
        clock = _FakeClock()
        spec = _latency_spec()
        engine = SLOEngine([spec], clock=clock)
        transitions = []
        engine.subscribe(lambda s, old, new: transitions.append((old, new)))

        # Healthy traffic for a minute: both windows hold burn 0.
        for _ in range(60):
            engine.record_request("m", 0.01, ok=True)
            clock.advance(1.0)
        engine.evaluate()
        assert engine.state("m") == "ok"

        # Everything breaching the threshold: burn = 1/0.1 = 10 on the
        # fast window immediately, and on the slow window once enough
        # bad events dominate it -> warn, then page.
        for _ in range(55):
            engine.record_request("m", 0.5, ok=True)
            clock.advance(1.0)
        engine.evaluate()
        assert engine.state("m") == "page"
        assert ("ok", "warn") in transitions or ("ok", "page") in transitions

        # Recovery: healthy traffic drains the fast window first
        # (hysteresis holds warn while fast burn >= 1), then ok.
        for _ in range(120):
            engine.record_request("m", 0.01, ok=True)
            clock.advance(1.0)
            engine.evaluate()
        assert engine.state("m") == "ok"
        assert transitions[-1][1] == "ok"

    def test_fast_blip_alone_does_not_page(self):
        clock = _FakeClock()
        spec = _latency_spec(min_events=1)
        engine = SLOEngine([spec], clock=clock)
        # A long healthy history so the slow window stays calm.
        for _ in range(55):
            engine.record_request("m", 0.01, ok=True)
            clock.advance(1.0)
        # A 3-second spike: fast burn explodes, slow burn stays low.
        for _ in range(3):
            engine.record_request("m", 0.5, ok=True)
            clock.advance(1.0)
        engine.evaluate()
        assert engine.state("m") == "ok"

    def test_availability_counts_errors_only(self):
        clock = _FakeClock()
        spec = SLOSpec(
            name="avail",
            kind="availability",
            objective=0.9,
            fast_window_s=10.0,
            slow_window_s=20.0,
        )
        engine = SLOEngine([spec], clock=clock)
        for _ in range(20):
            engine.record_request("m", 99.0, ok=True)  # slow but ok
            clock.advance(1.0)
        engine.evaluate()
        assert engine.state("m") == "ok"
        for _ in range(20):
            engine.record_request("m", 0.001, ok=False)
            clock.advance(1.0)
        engine.evaluate()
        assert engine.state("m") == "page"

    def test_worst_state_spans_specs(self):
        clock = _FakeClock()
        lat = _latency_spec(name="lat", model="a")
        avail = SLOSpec(
            name="avail",
            kind="availability",
            model="b",
            objective=0.9,
            fast_window_s=10.0,
            slow_window_s=20.0,
        )
        engine = SLOEngine([lat, avail], clock=clock)
        for _ in range(30):
            engine.record_request("a", 0.01, ok=True)
            engine.record_request("b", 0.01, ok=False)
            clock.advance(1.0)
        engine.evaluate()
        assert engine.state("a") == "ok"
        assert engine.state("b") == "page"
        assert engine.worst_state() == "page"

    def test_duplicate_spec_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine([_latency_spec(), _latency_spec()])


class _FakeDecodeCounters:
    def __init__(self):
        self.tokens = 0
        self._busy = 0.0

    def sample(self) -> tuple[int, float]:
        return self.tokens, self._busy

    def run(self, tokens: int, busy: float) -> None:
        self.tokens += tokens
        self._busy += busy


class TestThroughputSpecs:
    def test_shortfall_burns_budget(self):
        clock = _FakeClock()
        spec = SLOSpec(
            name="tput",
            kind="tokens_per_s",
            min_tokens_per_s=100.0,
            shortfall_budget=0.1,
            fast_window_s=10.0,
            slow_window_s=30.0,
        )
        engine = SLOEngine([spec], clock=clock)
        telemetry = _FakeDecodeCounters()
        engine.attach_gen_source("m", telemetry.sample)
        # Sustained 150 tok/s: above the floor, burn 0.
        for _ in range(40):
            telemetry.run(150, 1.0)
            clock.advance(1.0)
            engine.evaluate()
        assert engine.state("m") == "ok"
        # Collapse to 10 tok/s: shortfall 0.9 / budget 0.1 = burn 9.
        for _ in range(40):
            telemetry.run(10, 1.0)
            clock.advance(1.0)
            engine.evaluate()
        status = engine.evaluate()[0]
        assert status["state"] == "page"
        assert status["measured"] == pytest.approx(10.0, rel=0.3)

    def test_idle_decode_is_not_a_breach(self):
        clock = _FakeClock()
        spec = SLOSpec(
            name="tput",
            kind="tokens_per_s",
            min_tokens_per_s=100.0,
            fast_window_s=10.0,
            slow_window_s=30.0,
        )
        engine = SLOEngine([spec], clock=clock)
        telemetry = _FakeDecodeCounters()
        engine.attach_gen_source("m", telemetry.sample)
        for _ in range(40):  # counters never move: no busy time at all
            clock.advance(1.0)
            engine.evaluate()
        assert engine.state("m") == "ok"


class TestModuleGlobals:
    def test_set_engine_flips_runtime_flag(self):
        assert get_engine() is None and not rt.SLO
        engine = SLOEngine([_latency_spec()])
        set_engine(engine)
        try:
            assert rt.SLO and get_engine() is engine
            record_request("m", 0.01)  # routes to the installed engine
            engine.evaluate()
            status = engine.evaluate()[0]
            assert status["events_fast"] >= 1
        finally:
            clear_engine()
        assert not rt.SLO and get_engine() is None

    def test_record_request_without_engine_is_a_noop(self):
        record_request("m", 0.01)  # must not raise

    def test_snapshot_shape(self):
        engine = SLOEngine([_latency_spec()])
        snap = engine.snapshot()
        # The server adds the ``quarantined`` key of /slo from its pools.
        assert set(snap) == {"enabled", "specs"}
        assert snap["specs"][0]["state"] == "ok"
        assert snap["specs"][0]["transitions"] == []

    def test_evaluator_thread_lifecycle(self):
        engine = SLOEngine([_latency_spec()], eval_interval_s=0.01)
        engine.start()
        engine.start()  # idempotent
        engine.stop()
        engine.stop()
