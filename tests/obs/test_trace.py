"""Span/Tracer semantics: parentage, cross-thread hand-off, no-op path."""

import json
import threading

import pytest

from repro.obs import trace
from repro.obs.trace import (
    NOOP_SPAN,
    SpanContext,
    Tracer,
    activate,
    current_context,
    get_tracer,
    new_trace_id,
    span,
)


class TestSpanBasics:
    def test_span_records_on_end(self):
        tracer = Tracer()
        s = tracer.start_span("op", kind="test")
        assert tracer.spans() == []  # open spans are not yet recorded
        s.end()
        (recorded,) = tracer.spans()
        assert recorded.name == "op"
        assert recorded.attrs == {"kind": "test"}
        assert recorded.duration_ns >= 0
        assert recorded.end_ns >= recorded.start_ns

    def test_end_is_idempotent(self):
        tracer = Tracer()
        s = tracer.start_span("op")
        s.end()
        s.end()
        assert len(tracer.spans()) == 1
        assert tracer.recorded == 1

    def test_set_chains_attributes(self):
        tracer = Tracer()
        s = tracer.start_span("op", a=1).set(b=2).set(a=3)
        s.end()
        assert tracer.spans()[0].attrs == {"a": 3, "b": 2}

    def test_nested_spans_parent_on_thread_local(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert current_context() is None

    def test_explicit_parent_wins_over_thread_local(self):
        tracer = Tracer()
        remote = SpanContext("feedface00000000", "99")
        with tracer.span("local"):
            s = tracer.start_span("child", parent=remote)
        assert s.trace_id == "feedface00000000"
        assert s.parent_id == "99"

    def test_trace_id_forces_a_root_span(self):
        tracer = Tracer()
        with tracer.span("ambient"):
            s = tracer.start_span("root", trace_id="aa" * 8)
        assert s.trace_id == "aa" * 8
        assert s.parent_id is None

    def test_links_carry_fan_in(self):
        tracer = Tracer()
        contexts = tuple(
            SpanContext(new_trace_id(), str(i)) for i in range(3)
        )
        s = tracer.start_span("batch", links=contexts)
        s.end()
        assert tracer.spans()[0].links == contexts

    def test_guard_tags_error_and_still_ends(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (s,) = tracer.spans()
        assert s.attrs["error"] == "RuntimeError"
        assert s.end_ns is not None
        assert current_context() is None


class TestCrossThread:
    def test_producer_context_parents_consumer_span(self):
        tracer = Tracer()
        handoff = {}

        with tracer.span("producer") as producer:
            handoff["ctx"] = current_context()

        def consume():
            s = tracer.start_span("consumer", parent=handoff["ctx"])
            s.end()

        worker = threading.Thread(target=consume)
        worker.start()
        worker.join()
        consumer = [s for s in tracer.spans() if s.name == "consumer"][0]
        assert consumer.trace_id == producer.trace_id
        assert consumer.parent_id == producer.span_id

    def test_activate_hosts_children_on_the_worker_thread(self):
        tracer = Tracer()
        batch_span = tracer.start_span("batch")

        def work():
            with activate(batch_span):
                with tracer.span("child"):
                    pass

        worker = threading.Thread(target=work)
        worker.start()
        worker.join()
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["child"].parent_id == by_name["batch"].span_id
        assert by_name["batch"].end_ns is not None  # activate ends it

    def test_thread_local_stacks_are_independent(self):
        tracer = Tracer()
        seen = {}

        def other():
            seen["ctx"] = current_context()

        with tracer.span("main-only"):
            worker = threading.Thread(target=other)
            worker.start()
            worker.join()
        assert seen["ctx"] is None


class TestRingBuffer:
    def test_drops_oldest_and_counts(self):
        tracer = Tracer(max_spans=4)
        for i in range(7):
            tracer.start_span(f"s{i}").end()
        assert [s.name for s in tracer.spans()] == ["s3", "s4", "s5", "s6"]
        stats = tracer.stats()
        assert stats == {
            "recorded": 7,
            "dropped": 3,
            "retained": 4,
            "max_spans": 4,
        }

    def test_max_spans_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


class TestNoopPath:
    def test_module_span_is_shared_noop_while_disabled(self):
        assert trace.span("anything") is NOOP_SPAN
        assert trace.span("other", attr=1) is NOOP_SPAN

    def test_disabled_records_zero_spans(self):
        with trace.span("a"):
            with trace.span("b"):
                pass
        assert get_tracer().spans() == []
        assert get_tracer().recorded == 0

    def test_enable_records_then_disable_silences(self):
        tracer = trace.enable(clear=True)
        with trace.span("live"):
            pass
        assert [s.name for s in tracer.spans()] == ["live"]
        trace.disable()
        with trace.span("silent"):
            pass
        assert [s.name for s in tracer.spans()] == ["live"]


class TestExport:
    def test_trace_events_shape(self):
        tracer = Tracer()
        with tracer.span("outer", model="m"):
            with tracer.span("inner"):
                pass
        events = tracer.trace_events()
        assert events["displayTimeUnit"] == "ms"
        complete = [e for e in events["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in events["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        assert meta and meta[0]["name"] == "thread_name"
        outer = next(e for e in complete if e["name"] == "outer")
        inner = next(e for e in complete if e["name"] == "inner")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert outer["args"]["model"] == "m"
        json.dumps(events)  # must be serializable as-is

    def test_save_writes_loadable_json(self, tmp_path):
        tracer = Tracer()
        tracer.start_span("op").end()
        path = tmp_path / "trace.json"
        tracer.save(path)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]

    def test_snapshot_is_json_able(self):
        tracer = Tracer()
        link = SpanContext(new_trace_id(), "7")
        tracer.start_span("op", links=(link,), depth=2).end()
        (record,) = tracer.snapshot()
        assert record["name"] == "op"
        assert record["links"] == [list(link)]
        assert record["attrs"] == {"depth": 2}
        json.dumps(record)
