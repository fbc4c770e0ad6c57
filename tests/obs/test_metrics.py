"""Metrics registry: instruments, quantile interpolation, exporters."""

import re

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_set_refuses_to_go_backwards(self):
        c = Counter()
        c.set(5)
        c.set(5)  # equal is fine (idempotent scrape)
        with pytest.raises(ValueError):
            c.set(4)


class TestGauge:
    def test_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0


class TestHistogramQuantiles:
    def test_interpolates_between_order_statistics(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.record(v)
        # The nearest-rank form this replaced returned ordered[2] = 3.0
        # for p50 of four samples; R-7 interpolation gives the midpoint.
        assert h.quantile(0.50) == pytest.approx(2.5)
        assert h.quantile(0.95) == pytest.approx(3.85)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 4.0

    def test_single_sample_is_every_quantile(self):
        h = Histogram()
        h.record(7.0)
        assert h.quantile(0.5) == 7.0
        assert h.quantile(0.99) == 7.0

    def test_empty_window_reports_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_out_of_range_quantile_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_window_bounds_memory_but_not_lifetime_counts(self):
        h = Histogram(window=4)
        for v in range(100):
            h.record(float(v))
        assert h.count == 100
        assert h.total == sum(range(100))
        # Quantiles cover only the retained window (96..99).
        assert h.quantile(0.0) == 96.0
        assert h.quantile(1.0) == 99.0

    def test_snapshot_keeps_the_legacy_keys(self):
        h = Histogram()
        h.record(1.0)
        snap = h.snapshot()
        assert set(snap) == {"count", "mean", "p50", "p95", "p99"}

    def test_serve_telemetry_reexports_this_class(self):
        from repro.serve.telemetry import Histogram as ServeHistogram

        assert ServeHistogram is Histogram


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help", model="m")
        b = reg.counter("x_total", model="m")
        assert a is b
        assert reg.counter("x_total", model="other") is not a

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="counter"):
            reg.gauge("x_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", **{"bad-label": "x"})

    def test_register_histogram_adopts_and_replaces(self):
        reg = MetricsRegistry()
        first = Histogram()
        second = Histogram()
        reg.register_histogram("lat_seconds", first, model="m")
        assert reg.histogram("lat_seconds", model="m") is first
        reg.register_histogram("lat_seconds", second, model="m")
        assert reg.histogram("lat_seconds", model="m") is second

    def test_prune_drops_matching_series(self):
        reg = MetricsRegistry()
        reg.counter("a_total", model="m").set(3)
        reg.counter("a_total", model="other").set(1)
        reg.gauge("b", model="m", replica="0").set(2)
        assert reg.prune(model="m") == 2
        json_out = reg.to_json()
        remaining = [
            s["labels"] for s in json_out["a_total"]["series"]
        ]
        assert remaining == [{"model": "other"}]
        assert json_out["b"]["series"] == []

    def test_prune_then_reregister_resets_counter_series(self):
        # The hot-swap scenario: fresh telemetry restarts at zero, which
        # Counter.set would refuse on the old series.
        reg = MetricsRegistry()
        reg.counter("req_total", model="m").set(100)
        reg.prune(model="m")
        reg.counter("req_total", model="m").set(1)  # must not raise
        assert reg.counter("req_total", model="m").value == 1.0


class TestCollectors:
    def test_collector_runs_at_scrape(self):
        reg = MetricsRegistry()
        reg.register_collector(
            lambda r: r.gauge("pulled").set(42)
        )
        assert reg.to_json()["pulled"]["series"][0]["value"] == 42.0

    def test_unregister_stops_future_scrapes(self):
        reg = MetricsRegistry()
        calls = []
        fn = reg.register_collector(lambda r: calls.append(1))
        reg.collect()
        reg.unregister_collector(fn)
        reg.collect()
        assert len(calls) == 1

    def test_raising_collector_is_counted_not_fatal(self):
        reg = MetricsRegistry()

        def broken(r):
            raise RuntimeError("subsystem down")

        reg.register_collector(broken)
        reg.register_collector(lambda r: r.gauge("alive").set(1))
        out = reg.to_json()
        assert out["alive"]["series"][0]["value"] == 1.0
        errors = out["repro_obs_collector_errors_total"]["series"]
        assert errors[0]["value"] == 1.0


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests", model="m").set(3)
        reg.gauge("depth", "queue depth").set(1.5)
        text = reg.to_prometheus()
        assert "# TYPE req_total counter" in text
        assert 'req_total{model="m"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text
        assert "# HELP req_total requests" in text

    def test_histogram_renders_as_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", model="m")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.record(v)
        text = reg.to_prometheus()
        assert "# TYPE lat_seconds summary" in text
        assert 'lat_seconds{model="m",quantile="0.5"} 2.5' in text
        assert 'lat_seconds_sum{model="m"} 10' in text
        assert 'lat_seconds_count{model="m"} 4' in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("g", path='a"b\\c\nd').set(1)
        text = reg.to_prometheus()
        assert r'g{path="a\"b\\c\nd"} 1' in text

    def test_every_sample_line_parses(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "x", model="m").set(2)
        h = reg.histogram("h_seconds")
        h.record(0.5)
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
            r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
            r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
            r" -?[0-9.e+-]+(e[+-]?\d+)?$"
        )
        for line in reg.to_prometheus().strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) \S+ .+$", line), line
            else:
                assert sample.match(line), line


class TestDefaultRegistry:
    def test_default_collectors_publish_core_families(self):
        text = get_registry().to_prometheus()
        for family in (
            "repro_plan_cache_size",
            "repro_plan_cache_hits_total",
            "repro_workspace_arenas",
            "repro_workspace_bytes_resident",
            "repro_trace_enabled",
            "repro_drift_enabled",
            "repro_native_kernel_loaded",
        ):
            assert family in text

    def test_native_kernel_gauge_tracks_loader(self, monkeypatch):
        from repro.engine import native

        for loaded in (False, True):
            monkeypatch.setattr(
                native, "status", lambda: {"loaded": loaded, "path": None}
            )
            text = get_registry().to_prometheus()
            assert f"repro_native_kernel_loaded {int(loaded)}" in text

    def test_get_registry_is_a_singleton(self):
        assert get_registry() is get_registry()


class TestExemplars:
    def _hist(self, **kwargs):
        return Histogram(exemplar_bounds=(0.01, 0.1, 1.0), **kwargs)

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram(exemplar_bounds=(0.1, 0.1))
        with pytest.raises(ValueError, match="ascending"):
            Histogram(exemplar_bounds=())
        with pytest.raises(ValueError, match="reservoir"):
            Histogram(exemplar_bounds=(1.0,), exemplar_reservoir=0)

    def test_bucket_counts_are_cumulative(self):
        h = self._hist()
        for v in (0.005, 0.05, 0.5, 5.0):
            h.record(v)
        assert h.bucket_counts() == [
            ("0.01", 1), ("0.1", 2), ("1", 3), ("+Inf", 4),
        ]

    def test_without_bounds_no_buckets(self):
        h = Histogram()
        h.record(1.0, trace_id="t")
        assert h.bucket_counts() == []
        assert h.exemplars() == []

    def test_exemplars_keep_latest_traced_observation(self):
        h = self._hist()
        h.record(0.005)  # untraced: counted, no exemplar
        h.record(0.006, trace_id="first")
        h.record(0.007, trace_id="second")
        h.record(0.5, trace_id="slow")
        marks = {e["le"]: e for e in h.exemplars()}
        assert marks["0.01"]["trace_id"] == "second"
        assert marks["1"]["trace_id"] == "slow"
        assert marks["1"]["value"] == 0.5
        assert "+Inf" not in marks  # nothing landed there

    def test_registry_histogram_passes_bounds_through(self):
        reg = MetricsRegistry()
        h = reg.histogram(
            "lat_seconds", exemplar_bounds=(0.01, 1.0), model="m"
        )
        assert h.exemplar_bounds == (0.01, 1.0)
        # get-or-create returns the same configured instrument
        assert reg.histogram("lat_seconds", model="m") is h

    def test_json_exposition_carries_exemplars(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", exemplar_bounds=(0.01, 1.0))
        h.record(0.005, trace_id="abc123")
        series = reg.to_json()["lat_seconds"]["series"][0]
        assert series["exemplars"] == [
            {"le": "0.01", "value": 0.005, "trace_id": "abc123"}
        ]

    def test_prometheus_renders_openmetrics_exemplars(self):
        reg = MetricsRegistry()
        h = reg.histogram(
            "lat_seconds", exemplar_bounds=(0.01, 1.0), model="m"
        )
        h.record(0.005, trace_id="abc123")
        h.record(0.5)
        text = reg.to_prometheus()
        assert "# TYPE lat_seconds histogram" in text
        assert (
            'lat_seconds_bucket{model="m",le="0.01"} 1'
            ' # {trace_id="abc123"} 0.005' in text
        )
        assert 'lat_seconds_bucket{model="m",le="1"} 2' in text
        assert 'lat_seconds_bucket{model="m",le="+Inf"} 2' in text
        assert 'lat_seconds_sum{model="m"} 0.505' in text
        assert 'lat_seconds_count{model="m"} 2' in text

    def test_exemplar_lines_parse_as_openmetrics(self):
        # The obs-smoke CI job's line grammar, extended with the
        # optional exemplar suffix -- every emitted line must match.
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", exemplar_bounds=(0.1,))
        h.record(0.05, trace_id="t1")
        reg.counter("a_total").set(1)
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
            r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
            r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
            r" -?[0-9.e+-]+(e[+-]?\d+)?"
            r"( # \{trace_id=\"[^\"]*\"\} -?[0-9.e+-]+(e[+-]?\d+)?)?$"
        )
        for line in reg.to_prometheus().strip().splitlines():
            if not line.startswith("#"):
                assert sample.match(line), line
