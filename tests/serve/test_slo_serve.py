"""SLO-driven serving, end to end.

Three satellites meet here: the decode busy-clock regression (a
cancelled zero-token stream or a double finish must not wedge the
tokens/s denominator), cross-thread exemplar capture (a request
admitted on the caller thread and executed on a worker must stamp its
own trace id -- exactly one, never a neighbour's), and the tentpole
acceptance path: burn-rate degradation ok -> warn -> page with 429 +
``Retry-After`` shedding, live streams bit-identical throughout, and
recovery once the windows drain -- with tracing and the sampling
profiler running the whole time.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.obs as obs
from repro.api import QuantConfig, QuantMLP, quantize
from repro.gen.model import DecoderLM
from repro.nn.linear import Linear
from repro.nn.transformer import TransformerConfig
from repro.obs.slo import SLOSpec, clear_engine, get_engine
from repro.obs.trace import get_tracer
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
    def test_burn_rate_degrades_sheds_and_recovers(self, lm):
        """The acceptance path: a synthetic failure wave drives the SLO
        ok -> warn (deadlines stretch, decode admissions shrink) ->
        page (429 + Retry-After on new admissions), while streams
        admitted beforehand keep draining bit-identically; once the
        wave stops, the burn windows drain and the server restores its
        configured shape -- tracing and the profiler on throughout."""
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
            slo_eval_interval_s=0.05,
            retry_after_s=2.0,
        )
        server = Server(config=config)
        server.add_model("mlp", _mlp_compiled())
        server.add_model("lm", lm)

        prompts = [np.array([1, 4, 9, 16]), np.array([7, 3, 5])]
        references = [lm.generate(p, 40) for p in prompts]
        collected = [[] for _ in prompts]
        stream_errors = []

        def consume(i):
            try:
                stream = server.generate("lm", prompts[i], 40)
                for token in stream:
                    collected[i].append(token)
                    time.sleep(0.03)  # stay live across the phases
            except BaseException as exc:  # noqa: BLE001 -- surfaced below
                stream_errors.append(exc)

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

            # Phase A -- healthy traffic: everything stays ok.
            for _ in range(20):
                assert send(good)
                time.sleep(0.01)
            assert server.slo_mode == "ok"
            runtime = server._runtimes["mlp"]
            assert runtime.batcher.max_latency == pytest.approx(0.002)

            # Phase B -- a 25% failure mix burns budget at ~2.5x: past
            # warn_burn on both windows, below page_burn.
            deadline = time.monotonic() + 8.0
            while server.slo_mode == "ok" and time.monotonic() < deadline:
                send(bad)
                for _ in range(3):
                    send(good)
                time.sleep(0.02)
            assert server.slo_mode == "warn"
            # Degradation is the paper's batch economics: a *longer*
            # coalescing deadline (bigger LUT-amortized batches) and
            # fewer concurrent decode streams.
            assert runtime.batcher.max_latency == pytest.approx(0.008)
            assert server._schedulers["lm"].max_sequences == 2

            # Phase C -- total failure: both windows past page_burn.
            deadline = time.monotonic() + 8.0
            while server.slo_mode != "page" and time.monotonic() < deadline:
                send(bad)
                time.sleep(0.01)
            assert server.slo_mode == "page"

            # New admissions shed, in process and over HTTP ...
            with pytest.raises(AdmissionShedError) as shed:
                server.predict("mlp", good)
            assert shed.value.retry_after_s == pytest.approx(2.0)
            with pytest.raises(AdmissionShedError):
                server.generate("lm", prompts[0], 4)
            payload = json.dumps(
                {"model": "mlp", "input": good.tolist()}
            ).encode("utf-8")
            request = urllib.request.Request(
                base + "/predict",
                data=payload,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as http_err:
                urllib.request.urlopen(request, timeout=10)
            assert http_err.value.code == 429
            assert http_err.value.headers["Retry-After"] == "2"
            with urllib.request.urlopen(base + "/slo", timeout=10) as resp:
                slo_body = json.loads(resp.read())
            assert slo_body["enabled"]
            assert slo_body["specs"][0]["state"] == "page"

            # Phase D -- the wave stops; the fast window drains and the
            # server restores its configured shape.
            deadline = time.monotonic() + 10.0
            while server.slo_mode != "ok" and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.slo_mode == "ok"
            assert runtime.batcher.max_latency == pytest.approx(0.002)
            assert server._schedulers["lm"].max_sequences == 4

            for thread in consumers:
                thread.join(timeout=60.0)
            assert not stream_errors, stream_errors
            # ... while the streams admitted before the wave drained
            # bit-identically to solo decode.
            assert collected == references

            # Tracing and the profiler ran through every phase.
            assert get_tracer().spans()
            profiler = obs.get_profiler()
            assert profiler is not None and profiler.stats()["samples"] > 0
        finally:
            server.stop()
