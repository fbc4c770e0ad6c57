"""Drift telemetry: recording, persistence, the report, and the CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.obs import drift
from repro.obs.drift import DriftRecorder, batch_bucket, get_recorder
from repro.obs.report import build_report, format_report


class TestBatchBucket:
    def test_next_power_of_two(self):
        assert [batch_bucket(b) for b in (1, 2, 3, 4, 5, 8, 9)] == [
            1, 2, 4, 4, 8, 8, 16,
        ]

    def test_mirrors_the_dispatch_definition(self):
        from repro.engine.dispatch import batch_bucket as dispatch_bucket

        for batch in (1, 2, 3, 7, 8, 33, 100):
            assert batch_bucket(batch) == dispatch_bucket(batch)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            batch_bucket(0)


class TestDriftRecorder:
    def test_prediction_and_measurement_share_a_key(self):
        rec = DriftRecorder()
        rec.record_prediction("dense", 64, 32, 3, 4, 1e-4)
        rec.record_measurement("dense", 64, 32, 3, batch=3, seconds=2e-4)
        assert len(rec) == 1
        (entry,) = rec.snapshot()
        assert entry["backend"] == "dense"
        assert entry["bucket"] == 4  # batch=3 bucketed up
        assert entry["predicted_s"] == 1e-4
        assert entry["measured_count"] == 1
        assert entry["measured_p50_s"] == 2e-4

    def test_latest_prediction_wins(self):
        rec = DriftRecorder()
        rec.record_prediction("dense", 8, 8, 2, 1, 1.0)
        rec.record_prediction("dense", 8, 8, 2, 1, 2.0)
        assert rec.snapshot()[0]["predicted_s"] == 2.0

    def test_snapshot_orders_by_shape_then_engine(self):
        rec = DriftRecorder()
        rec.record_prediction("dense", 16, 8, 3, 1, 1.0)
        rec.record_prediction("biqgemm", 16, 8, 3, 1, 1.0)
        rec.record_prediction("dense", 8, 8, 3, 1, 1.0)
        keys = [(e["m"], e["backend"]) for e in rec.snapshot()]
        assert keys == [(8, "dense"), (16, "biqgemm"), (16, "dense")]

    def test_module_level_helpers_are_noop_while_disabled(self):
        drift.record_prediction("dense", 8, 8, 2, 1, 1.0)
        drift.record_measurement("dense", 8, 8, 2, batch=1, seconds=1.0)
        assert len(get_recorder()) == 0

    def test_module_level_helpers_record_when_enabled(self):
        drift.enable(reset=True)
        drift.record_prediction("dense", 8, 8, 2, 1, 1.0)
        assert len(get_recorder()) == 1
        drift.disable()
        drift.record_prediction("dense", 8, 16, 2, 1, 1.0)
        assert len(get_recorder()) == 1

    def test_compile_records_each_pinned_plan_at_its_bucket(self, rng):
        from repro.api import QuantConfig, quantize
        from repro.api.model import QuantMLP
        from repro.nn.linear import Linear

        layers = [
            Linear(rng.standard_normal((16, 24)), rng.standard_normal(16)),
            Linear(rng.standard_normal((8, 16)), rng.standard_normal(8)),
        ]
        drift.enable(reset=True)
        quantize(QuantMLP(layers), QuantConfig(bits=2, mu=4)).compile(
            batch_hint=6
        )
        entries = get_recorder().snapshot()
        assert {(e["m"], e["n"]) for e in entries if e["bucket"] == 8} == {
            (16, 24),
            (8, 16),
        }

    def test_save_load_roundtrip(self, tmp_path):
        rec = DriftRecorder()
        rec.record_prediction("dense", 8, 8, 2, 1, 1.0, machine="pc")
        path = tmp_path / "drift.json"
        rec.save(path)
        entries = drift.load(path)
        assert entries == rec.snapshot()

    def test_load_accepts_bare_entry_list(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([{"backend": "dense"}]))
        assert drift.load(path) == [{"backend": "dense"}]

    def test_load_rejects_other_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(ValueError):
            drift.load(path)


def _entry(backend, *, predicted=None, p50=None, count=0,
           m=64, n=32, bits=3, bucket=8):
    return {
        "backend": backend,
        "m": m,
        "n": n,
        "bits": bits,
        "bucket": bucket,
        "mu": 8,
        "machine": "pc",
        "predicted_s": predicted,
        "measured_count": count,
        "measured_p50_s": p50,
    }


class TestBuildReport:
    def test_agreement_has_unit_regret(self):
        report = build_report(
            [
                _entry("dense", predicted=1e-4, p50=1e-4, count=5),
                _entry("biqgemm", predicted=2e-4, p50=3e-4, count=5),
            ],
            backfill=False,
        )
        (shape,) = report["shapes"]
        assert shape["planner_pick"] == "dense"
        assert shape["measured_best"] == "dense"
        assert shape["agree"] is True
        assert shape["regret"] == pytest.approx(1.0)
        assert report["summary"]["disagreements"] == 0

    def test_disagreement_ranks_by_regret(self):
        entries = [
            # Shape A: planner picks dense, but biqgemm measures 2x
            # faster -> regret 2.0.
            _entry("dense", predicted=1e-4, p50=2e-4, count=5, m=64),
            _entry("biqgemm", predicted=3e-4, p50=1e-4, count=5, m=64),
            # Shape B: agreement.
            _entry("dense", predicted=1e-4, p50=1e-4, count=5, m=128),
            _entry("biqgemm", predicted=2e-4, p50=5e-4, count=5, m=128),
        ]
        report = build_report(entries, backfill=False)
        assert report["summary"] == {"shapes": 2, "disagreements": 1}
        worst = report["shapes"][0]
        assert worst["m"] == 64
        assert worst["agree"] is False
        assert worst["regret"] == pytest.approx(2.0)
        ratio = worst["engines"]["dense"]["measured_over_predicted"]
        assert ratio == pytest.approx(2.0)

    def test_measurement_only_entries_backfill_predictions(self):
        report = build_report(
            [
                _entry("dense", p50=1e-4, count=3, m=64, n=64),
                _entry("biqgemm", p50=2e-4, count=3, m=64, n=64),
            ],
            backfill=True,
        )
        (shape,) = report["shapes"]
        for cell in shape["engines"].values():
            assert cell["predicted_s"] is not None
            assert cell["backfilled"] is True
        assert shape["planner_pick"] is not None

    def test_backfill_survives_unknown_engines(self):
        report = build_report(
            [_entry("not_an_engine", p50=1e-4, count=1)], backfill=True
        )
        (shape,) = report["shapes"]
        cell = shape["engines"]["not_an_engine"]
        assert cell["predicted_s"] is None
        assert shape["planner_pick"] is None

    def test_format_report_renders_the_verdicts(self):
        report = build_report(
            [
                _entry("dense", predicted=1e-4, p50=2e-4, count=5),
                _entry("biqgemm", predicted=3e-4, p50=1e-4, count=5),
            ],
            backfill=False,
        )
        text = format_report(report)
        assert "DISAGREES" in text
        assert "regret 2.00x" in text
        assert "dense" in text and "biqgemm" in text

    def test_format_report_top_limits_rows(self):
        entries = [
            _entry("dense", predicted=1e-4, p50=1e-4, count=1, m=m)
            for m in (8, 16, 32)
        ]
        text = format_report(build_report(entries, backfill=False), top=1)
        assert text.count("planner agrees") == 1


class TestCli:
    def _run(self, *args):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", "report", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def test_report_from_file_as_json(self, tmp_path):
        rec = DriftRecorder()
        rec.record_prediction("dense", 16, 8, 3, 1, 1e-4)
        rec.record_measurement("dense", 16, 8, 3, batch=1, seconds=2e-4)
        path = tmp_path / "drift.json"
        rec.save(path)
        proc = self._run(str(path), "--json", "--no-backfill")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["summary"]["shapes"] == 1

    def test_empty_drift_file_fails(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"version": 1, "entries": []}')
        proc = self._run(str(path))
        assert proc.returncode == 1
