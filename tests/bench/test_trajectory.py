"""Unit tests for the perf-trajectory gate (repro.bench.trajectory) and
the ``compare`` / ``--emit-json`` paths of the bench CLI."""

import json

import pytest

from repro.bench import registry, trajectory
from repro.bench.cli import main
from repro.bench.report import Table
from repro.bench.trajectory import BAND_CAP, compare_metrics, metric_direction


def _record(metrics, *, gated=None, noise=None):
    record = {
        "schema": 1,
        "experiment": "stub",
        "quick": True,
        "gated": list(metrics if gated is None else gated),
        "metrics": metrics,
    }
    if noise:
        record["noise"] = noise
    return record


def _current(**metrics):
    return {"metrics": metrics}


class TestCompareMetrics:
    def test_halving_fails_whatever_noise_the_baseline_recorded(self):
        noisy = {"speedup_x": 0.9, "p50_ms": 0.9}
        base = _record({"speedup_x": 2.0, "p50_ms": 1.0}, noise=noisy)
        problems = compare_metrics(_current(speedup_x=1.0, p50_ms=2.0), base)
        assert len(problems) == 2
        assert f"allowed {BAND_CAP:.0%} drop" in problems[0]
        assert f"allowed {BAND_CAP:.0%} increase" in problems[1]
        assert BAND_CAP < 0.5

    def test_recorded_noise_widens_the_threshold_below_the_cap(self):
        base = _record({"speedup_x": 2.0}, noise={"speedup_x": 0.1})
        assert compare_metrics(_current(speedup_x=1.64), base) == []
        (line,) = compare_metrics(_current(speedup_x=1.56), base)
        assert "allowed 20% drop" in line

    def test_zero_baseline_fails_on_any_increase(self):
        base = _record({"engine_alloc_events": 0.0})
        assert compare_metrics(_current(engine_alloc_events=0.0), base) == []
        (line,) = compare_metrics(_current(engine_alloc_events=1.0), base)
        assert "zero baseline" in line

    def test_names_missing_on_either_side_are_skipped(self):
        base = _record(
            {"speedup_a": 2.0, "speedup_b": 2.0},
            gated=["speedup_a", "speedup_b", "speedup_c"],
        )
        problems = compare_metrics(_current(speedup_a=0.1, speedup_c=0.1), base)
        assert [line.split(":")[0] for line in problems] == ["speedup_a"]

    @pytest.mark.parametrize(
        "name, direction",
        [
            ("compiled_p50_b1_us", "lower"),
            ("alloc_b1_bytes", "lower"),
            ("profiler_cost_ratio", "lower"),
            ("speedup_vs_best_b1", "higher"),
            ("identical_b1", "higher"),
            ("cluster_req_per_s", "higher"),  # ends in _s, but a rate
            ("crossover_batch", None),
        ],
    )
    def test_direction_comes_from_the_suffix(self, name, direction):
        assert metric_direction(name) == direction
        base = _record({name: 1.0})
        rise = compare_metrics(_current(**{name: 2.0}), base)
        fall = compare_metrics(_current(**{name: 0.5}), base)
        assert bool(rise) == (direction == "lower")
        assert bool(fall) == (direction == "higher")


@pytest.fixture()
def stub(monkeypatch, tmp_path):
    """A registered trajectory experiment that counts its runs and
    reports ``speedup_stub`` = ``value[0]``; records land in tmp_path."""
    calls = []
    value = [1.0]

    @registry.gated("speedup_stub")
    def stub_experiment(quick=False):
        calls.append(quick)
        table = Table("stub", ["x"], rows=[(1,)])
        return registry.Measurement([table], {"speedup_stub": value[0]})

    monkeypatch.setitem(registry.EXPERIMENTS, "stub", stub_experiment)
    monkeypatch.setattr(trajectory, "_REPO_ROOT", tmp_path)
    return calls, value


def test_compare_and_emit_json_cli(stub, tmp_path, capsys):
    """``compare`` exits 1 on a halving and prints the band each metric
    got, on failure and on success; ``--emit-json`` measures exactly
    ``samples`` times, reusing the printed run as the first."""
    calls, value = stub
    path = tmp_path / "baseline.json"
    record = _record({"speedup_stub": 2.0}, noise={"speedup_stub": 0.4})
    path.write_text(json.dumps(record))

    assert main(["compare", "stub", "--quick", "--baseline", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "stub.speedup_stub: current=1.0 baseline=2.0 band=25% drop" in out
    assert (
        "REGRESSION stub.speedup_stub: 1 vs baseline 2 (-50.0%, "
        "allowed 25% drop)" in err
    )
    value[0] = 1.6
    assert main(["compare", "stub", "--baseline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 gated metric(s) within their bands (speedup_stub 25% drop)" in out
    assert calls == [True, False]

    calls.clear()
    assert main(["stub", "--quick", "--emit-json"]) == 0
    assert calls == [True] * 3  # write_trajectory's default samples
    record = trajectory.load_trajectory(tmp_path / "BENCH_stub.json")
    assert record["gated"] == ["speedup_stub"]
    assert record["metrics"] == {"speedup_stub": 1.6}
    assert record["noise"] == {"speedup_stub": 0.0}
