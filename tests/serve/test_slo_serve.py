"""SLO-driven serving, end to end.

Covered here: the decode busy-clock regression (a cancelled zero-token
stream or a double finish must not wedge the tokens/s denominator),
cross-thread exemplar capture (a request admitted on the caller thread
and executed on a worker must stamp its own trace id -- exactly one,
never a neighbour's), failed decode steps reaching the SLO windows, and
the SLO state machine on a live server:
ok -> warn -> page, 429 + ``Retry-After`` shedding while paging, live
streams bit-identical throughout, ``warn`` changing no serving
parameter, and recovery -- with tracing and the sampling profiler
running the whole time.

The SLO tests own both of their inputs, so they do not depend on host
speed: failures and slow forwards are injected by the test, and the
engine runs on a hand-advanced clock (:class:`FakeClock`), stepped with
``SLOEngine.evaluate(now=...)`` instead of sleeping through windows.
"""

import functools
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.obs as obs
from repro.api import CompiledModel, QuantConfig, QuantMLP, quantize
from repro.gen.model import DecoderLM
from repro.nn.linear import Linear
from repro.nn.transformer import TransformerConfig
from repro.obs import slo as slo_mod
from repro.obs.slo import SLOSpec, clear_engine, get_engine
from repro.obs.trace import get_tracer
from repro.resilience import faults
from repro.serve import (
    AdmissionShedError,
    SequenceScheduler,
    ServeConfig,
    Server,
)
from repro.serve.sequences import GenMetrics


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    clear_engine()
    get_tracer().clear()
    yield
    obs.disable()
    clear_engine()
    get_tracer().clear()


def _mlp_compiled(seed=0, dims=(6, 10, 4)):
    rng = np.random.default_rng(seed)
    mlp = QuantMLP(
        [
            Linear(rng.standard_normal((m, n)), rng.standard_normal(m))
            for n, m in zip(dims[:-1], dims[1:])
        ]
    )
    return quantize(mlp, QuantConfig(bits=2, mu=4)).compile(batch_hint=1)


class FakeClock:
    """A monotonic clock that moves only when the test advances it."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def slo_clock(monkeypatch):
    """Every SLOEngine a server builds in the test reads this clock:
    requests are stamped with the test's time, not the host's."""
    clock = FakeClock()
    monkeypatch.setattr(
        slo_mod, "SLOEngine", functools.partial(slo_mod.SLOEngine, clock=clock)
    )
    return clock


def step_to(server, clock: FakeClock, now: float) -> str:
    """Move the clock to *now*, evaluate the server's SLO engine there,
    and return the server-wide mode."""
    clock.now = now
    server._slo_engine.evaluate(now=now)
    return server.slo_mode


def http_post(base: str, path: str, body: dict):
    """POST *body* as JSON; returns the ``HTTPError`` a refusal raises."""
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    return err.value


def get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return json.loads(resp.read())


# The evaluator thread never fires within a test: only step_to steps
# the state machines.
NO_EVAL_THREAD_S = 3600.0


@pytest.fixture(scope="module")
def lm():
    model = DecoderLM(
        TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2), 50, seed=3
    )
    return quantize(
        model, QuantConfig(bits=2, mu=4, backend="biqgemm")
    ).compile(batch_hint=1)


class TestBusyClock:
    """GenMetrics busy-time accounting under cancellation races."""

    def test_duplicate_finish_is_clamped(self):
        t = GenMetrics(live=lambda: 0)
        t.record_admit()
        t.record_finish("length")
        settled = t.busy_seconds()
        t.record_finish("cancelled")  # the race: two finishers, one stream
        time.sleep(0.02)
        # A clamped double-finish leaves the clock parked, not negative:
        # the next stream still meters.
        assert t.busy_seconds() == settled
        t.record_admit()
        time.sleep(0.02)
        assert t.busy_seconds() > settled
        t.record_finish("length")

    def test_unmatched_finish_is_ignored(self):
        t = GenMetrics(live=lambda: 0)
        t.record_finish("cancelled")  # nothing was ever admitted
        assert t.busy_seconds() == 0.0
        t.record_admit()
        time.sleep(0.01)
        t.record_finish("length")
        assert t.busy_seconds() > 0.0

    def test_busy_seconds_is_live_and_monotonic(self):
        t = GenMetrics(live=lambda: 0)
        t.record_admit()
        first = t.busy_seconds()
        time.sleep(0.02)
        second = t.busy_seconds()
        assert second > first  # includes the in-progress period
        t.record_finish("length")
        third = t.busy_seconds()
        assert third >= second
        time.sleep(0.02)
        assert t.busy_seconds() == third  # idle: the clock is parked

    def test_zero_token_cancel_stops_the_clock(self, lm):
        """A stream cancelled before its first token is read -- with
        close() racing from several threads -- must return the
        metrics to idle (the pre-fix failure mode left ``_active``
        permanently nonzero, so busy time grew forever and tokens/s
        decayed to noise)."""
        scheduler = SequenceScheduler(lm, max_sequences=4, name="cancel")
        with scheduler:
            stream = scheduler.generate(np.array([1, 2, 3]), 50)
            closers = [
                threading.Thread(target=stream.close) for _ in range(4)
            ]
            for thread in closers:
                thread.start()
            for thread in closers:
                thread.join()
            deadline = time.monotonic() + 5.0
            while scheduler.active() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert scheduler.active() == 0
            settled = scheduler.metrics.busy_seconds()
            time.sleep(0.05)
            assert scheduler.metrics.busy_seconds() == settled


class TestExemplarCapture:
    """Latency exemplars must carry the owning request's trace id even
    though admission, coalescing, and execution happen on three
    different threads."""

    def test_predict_attaches_exactly_one_trace_id(self):
        obs.enable(tracing=True, drift=False, clear=True)
        server = Server(
            config=ServeConfig(workers=1, max_batch=4, max_latency_ms=2.0)
        )
        server.add_model("mlp", _mlp_compiled())
        x = np.random.default_rng(0).standard_normal(6)
        with server:
            server.predict("mlp", x, request_id="feedbeef00000001")
            latency = server._runtimes["mlp"].batcher.metrics.latency
            cells = latency.exemplars()
        assert len(cells) == 1
        assert cells[0]["trace_id"] == "feedbeef00000001"
        assert cells[0]["value"] > 0

    def test_concurrent_requests_never_cross_trace_ids(self):
        obs.enable(tracing=True, drift=False, clear=True)
        server = Server(
            config=ServeConfig(workers=2, max_batch=8, max_latency_ms=10.0)
        )
        server.add_model("mlp", _mlp_compiled())
        rng = np.random.default_rng(1)
        rids = [f"req{i:013d}" for i in range(12)]
        inputs = [rng.standard_normal(6) for _ in rids]
        errors = []

        def client(i):
            try:
                server.predict("mlp", inputs[i], request_id=rids[i])
            except BaseException as exc:  # noqa: BLE001 -- surfaced below
                errors.append(exc)

        with server:
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(rids))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            latency = server._runtimes["mlp"].batcher.metrics.latency
            cells = latency.exemplars()
        assert not errors, errors
        ids = [cell["trace_id"] for cell in cells]
        assert ids, "no exemplars captured"
        # Every exemplar belongs to one of *our* requests (no foreign
        # ids from worker/batch spans), and one observation lands in
        # exactly one bucket (no duplicated ids across cells).
        assert set(ids) <= set(rids)
        assert len(ids) == len(set(ids))


class TestDegradationEndToEnd:
    def test_burn_rate_degrades_sheds_and_recovers(self, lm, slo_clock):
        """A synthetic failure wave degrades the SLO state ok -> warn ->
        page.  ``warn`` is reported and changes no deadline or admission
        cap; ``page`` sheds new admissions with 429 + ``Retry-After``,
        while streams admitted beforehand keep draining bit-identically;
        once the windows empty, the server admits again -- tracing and
        the profiler on throughout."""
        obs.enable(tracing=True, drift=False, profile=True, clear=True)
        spec = SLOSpec(
            name="availability",
            kind="availability",
            model="*",
            objective=0.9,
            fast_window_s=1.0,
            slow_window_s=2.0,
            warn_burn=1.5,
            page_burn=6.0,
            min_events=5,
        )
        config = ServeConfig(
            workers=2,
            max_batch=8,
            max_latency_ms=2.0,
            max_sequences=4,
            decode_latency_ms=1.0,
            slos=(spec,),
            slo_eval_interval_s=NO_EVAL_THREAD_S,
            retry_after_s=2.0,
        )
        server = Server(config=config)
        server.add_model("mlp", _mlp_compiled())
        server.add_model("lm", lm)

        prompts = [np.array([1, 4, 9, 16]), np.array([7, 3, 5])]
        references = [lm.generate(p, 40) for p in prompts]
        collected = [[] for _ in prompts]
        stream_errors = []
        started = [threading.Event() for _ in prompts]
        paged = threading.Event()

        def consume(i):
            try:
                stream = server.generate("lm", prompts[i], 40)
                for token in stream:
                    collected[i].append(token)
                    if len(collected[i]) == 5:
                        # Hold the stream live until the server pages.
                        started[i].set()
                        paged.wait(timeout=60.0)
            except BaseException as exc:  # noqa: BLE001 -- surfaced below
                stream_errors.append(exc)
            finally:
                started[i].set()

        good = np.zeros(6)
        bad = np.zeros(7)  # wrong feature count: fails inside the engine

        def send(x):
            try:
                server.predict("mlp", x, timeout=5.0)
                return True
            except AdmissionShedError:
                raise
            except Exception:
                return False

        httpd = server.serve_http(port=0)
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            assert get_engine() is not None
            assert server.slo_mode == "ok"
            consumers = [
                threading.Thread(target=consume, args=(i,))
                for i in range(len(prompts))
            ]
            for thread in consumers:
                thread.start()
            for event in started:
                assert event.wait(timeout=60.0)
            assert not stream_errors, stream_errors

            # Phase A -- healthy traffic: everything stays ok.
            for _ in range(20):
                assert send(good)
            assert step_to(server, slo_clock, 1000.0) == "ok"

            # Phase B -- a 25% failure mix burns budget at 2.5x: past
            # warn_burn on both windows, below page_burn.
            slo_clock.now = 1010.0  # phase A has left both windows
            for _ in range(3):
                assert not send(bad)
                for _ in range(3):
                    assert send(good)
            assert step_to(server, slo_clock, 1010.0) == "warn"
            # warn reports; it changes no serving parameter and sheds
            # nothing.
            assert server._runtimes["mlp"].batcher.max_latency == (
                pytest.approx(0.002)
            )
            assert server._schedulers["lm"].max_sequences == 4
            assert send(good)
            server.generate("lm", prompts[0], 1).close()

            # Phase C -- total failure: both windows past page_burn.
            slo_clock.now = 1020.0
            for _ in range(6):
                assert not send(bad)
            assert step_to(server, slo_clock, 1020.0) == "page"

            # New admissions shed, in process and over HTTP ...
            with pytest.raises(AdmissionShedError) as shed:
                server.predict("mlp", good)
            assert shed.value.retry_after_s == pytest.approx(2.0)
            with pytest.raises(AdmissionShedError):
                server.generate("lm", prompts[0], 4)
            refused = http_post(
                base, "/predict", {"model": "mlp", "input": good.tolist()}
            )
            assert refused.code == 429
            assert refused.headers["Retry-After"] == "2"
            refused = http_post(
                base, "/generate", {"model": "lm", "prompt": [1, 2, 3]}
            )
            assert refused.code == 429
            assert refused.headers["Retry-After"] == "2"
            slo_body = get_json(base, "/slo")
            assert slo_body["enabled"]
            assert slo_body["specs"][0]["state"] == "page"
            assert slo_body["quarantined"] == {}
            metrics = get_json(base, "/metrics")
            assert metrics["obs"]["slo_mode"] == "page"

            # ... while the streams admitted before the wave drain
            # bit-identically to solo decode.
            paged.set()
            for thread in consumers:
                thread.join(timeout=60.0)
            assert not stream_errors, stream_errors
            assert collected == references

            # Phase D -- the wave is over; once both windows have
            # passed, the server admits again.
            assert step_to(server, slo_clock, 1023.0) == "ok"
            assert send(good)
            steps = [
                (t["from"], t["to"])
                for t in get_json(base, "/slo")["specs"][0]["transitions"]
            ]
            assert steps == [("ok", "warn"), ("warn", "page"), ("page", "ok")]

            # Tracing and the profiler ran through every phase.
            assert get_tracer().spans()
            profiler = obs.get_profiler()
            assert profiler is not None and profiler.stats()["samples"] > 0
        finally:
            paged.set()
            server.stop()


# The latency SLO's bound, and the forward time the spike injects: a
# gentle request (a 6-10-4 MLP plus the batcher's 1 ms wait) stays far
# below the bound, a spiked one far above it, on any host.
THRESHOLD_S = 0.05
SPIKE_S = 0.25


class TestLatencySpike:
    def test_spike_pages_sheds_and_recovers(self, slo_clock, monkeypatch):
        """An injected slow forward walks a latency SLO ok -> warn ->
        page; paging sheds with 429 + ``Retry-After``, and the server
        recovers once the spike has left both windows -- tracing and
        the profiler on throughout."""
        spike = threading.Event()
        forward = CompiledModel.__call__

        def slow_forward(self, *args, **kwargs):
            if spike.is_set():
                time.sleep(SPIKE_S)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(CompiledModel, "__call__", slow_forward)
        obs.enable(tracing=True, drift=False, profile=True, clear=True)
        spec = SLOSpec(
            name="latency",
            kind="latency",
            threshold_s=THRESHOLD_S,
            objective=0.9,
            fast_window_s=1.0,
            slow_window_s=2.0,
            warn_burn=1.5,
            page_burn=6.0,
            min_events=3,
        )
        server = Server(
            config=ServeConfig(
                workers=2,
                max_batch=8,
                max_latency_ms=1.0,
                slos=(spec,),
                slo_eval_interval_s=NO_EVAL_THREAD_S,
                retry_after_s=3.0,
            )
        )
        server.add_model("mlp", _mlp_compiled())
        x = np.random.default_rng(0).standard_normal(6)

        def spiked(n):
            spike.set()
            try:
                for _ in range(n):
                    server.predict("mlp", x)
            finally:
                spike.clear()

        httpd = server.serve_http(port=0)
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            # Gentle traffic holds ok: no request comes near the bound.
            for _ in range(30):
                server.predict("mlp", x)
            assert step_to(server, slo_clock, 1000.0) == "ok"
            assert get_json(base, "/slo")["specs"][0]["fast_burn"] == 0.0

            # One request in five spikes: a burn of 2, warn.
            slo_clock.now = 1010.0
            for _ in range(8):
                server.predict("mlp", x)
            spiked(2)
            assert step_to(server, slo_clock, 1010.0) == "warn"

            # Every request spikes: a burn of 10 on both windows, page.
            slo_clock.now = 1020.0
            spiked(4)
            assert step_to(server, slo_clock, 1020.0) == "page"

            # Paging sheds new admissions over HTTP with 429 +
            # Retry-After.
            refused = http_post(
                base, "/predict", {"model": "mlp", "input": x.tolist()}
            )
            assert refused.code == 429
            assert refused.headers["Retry-After"] == "3"
            status = get_json(base, "/slo")["specs"][0]
            assert status["state"] == "page"
            steps = [(t["from"], t["to"]) for t in status["transitions"]]
            assert ("ok", "warn") in steps, steps
            assert steps[-1][1] == "page", steps

            # The spike has left both windows: the server recovers and
            # admits again.
            assert step_to(server, slo_clock, 1023.0) == "ok"
            server.predict("mlp", x)

            assert get_tracer().spans()
            profiler = obs.get_profiler()
            assert profiler is not None and profiler.stats()["samples"] > 0
        finally:
            server.stop()


class TestDecodeFailures:
    def test_failed_ticks_page_an_availability_slo(self, lm, slo_clock):
        """A decode tick that raises ends its stream as ``error``: one
        count on ``GenMetrics.errors`` and one failed request in the SLO
        windows, so an availability spec pages on ``/generate`` traffic
        alone.  A stream that runs to its length counts as a good
        request."""
        spec = SLOSpec(
            name="availability",
            kind="availability",
            objective=0.9,
            fast_window_s=1.0,
            slow_window_s=2.0,
            warn_burn=1.5,
            page_burn=6.0,
            min_events=5,
        )
        server = Server(
            config=ServeConfig(
                workers=1,
                max_sequences=4,
                decode_latency_ms=1.0,
                slos=(spec,),
                slo_eval_interval_s=NO_EVAL_THREAD_S,
            )
        )
        server.add_model("lm", lm)
        prompt = np.array([1, 4, 9, 16])
        reference = lm.generate(prompt, 4)
        with server:
            for _ in range(5):
                assert list(server.generate("lm", prompt, 4)) == reference
            assert step_to(server, slo_clock, 1000.0) == "ok"
            assert server.slo()["specs"][0]["events_fast"] == 5

            slo_clock.now = 1010.0
            with faults.plan().fail("gen.tick", times=None):
                for _ in range(6):
                    stream = server.generate("lm", prompt, 4)
                    with pytest.raises(faults.FaultError):
                        list(stream)
                    assert stream.finish_reason == "error"
            assert step_to(server, slo_clock, 1010.0) == "page"
            generation = server.metrics()["models"]["lm"]["generation"]
            assert generation["errors"] == 6
            assert generation["completed"] == 5
            assert generation["cancelled"] == 0
            with pytest.raises(AdmissionShedError):
                server.generate("lm", prompt, 4)

            # The failures have left both windows.
            assert step_to(server, slo_clock, 1013.0) == "ok"
            assert list(server.generate("lm", prompt, 4)) == reference
