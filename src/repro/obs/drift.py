"""Cost-model drift telemetry: predicted vs. measured engine cost.

The planner (:func:`repro.api.planner.plan_layers` over
:func:`repro.engine.dispatch.plan_backend`) chooses among the engines by a
roofline cost model.  That model is a *prediction*; this module records
it next to reality so the question "where does the planner's ranking
disagree with measured wall time" has a standing answer instead of a
one-off benchmark.

Data model: one entry per ``(backend, m, n, bits, bucket)`` where
``bucket`` is the planner's batch bucket (next power of two -- the same
granularity the planner prices, so predictions and measurements land on
the same key).  Each entry keeps the latest **predicted** seconds (from
the cost model, captured at compile time) and a bounded window of
**measured** seconds (wall time of real ``engine.matmul`` calls,
captured by the traced layer path when drift telemetry is enabled).

``python -m repro.obs report`` turns a recorder (live or saved JSON)
into a per-shape ranking of planner regret -- see
:mod:`repro.obs.report`.

Disabled by default; the hot path guards on
:data:`repro.obs.runtime.DRIFT` so the off state costs one boolean read.
"""

from __future__ import annotations

import json
import threading

from repro._util import batch_bucket
from repro.obs import runtime as _rt
from repro.obs.metrics import Histogram

__all__ = [
    "DriftRecorder",
    "disable",
    "enable",
    "get_recorder",
    "is_enabled",
    "load",
    "record_measurement",
    "record_prediction",
]

#: Measured-seconds window per key -- enough for a stable p50 without
#: letting a long serve run grow memory per shape.
MEASURE_WINDOW = 512


class _Entry:
    __slots__ = (
        "backend",
        "m",
        "n",
        "bits",
        "bucket",
        "mu",
        "machine",
        "predicted_s",
        "measured",
    )

    def __init__(self, backend, m, n, bits, bucket, mu, machine):
        self.backend = backend
        self.m = m
        self.n = n
        self.bits = bits
        self.bucket = bucket
        self.mu = mu
        self.machine = machine
        self.predicted_s: float | None = None
        self.measured = Histogram(window=MEASURE_WINDOW)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "m": self.m,
            "n": self.n,
            "bits": self.bits,
            "bucket": self.bucket,
            "mu": self.mu,
            "machine": self.machine,
            "predicted_s": self.predicted_s,
            "measured_count": self.measured.count,
            "measured_mean_s": self.measured.mean,
            "measured_p50_s": self.measured.quantile(0.50),
            "measured_p95_s": self.measured.quantile(0.95),
        }


class DriftRecorder:
    """Thread-safe store of predicted/measured cost per engine+shape."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple, _Entry] = {}

    def _entry(self, backend, m, n, bits, bucket, mu, machine):
        key = (backend, int(m), int(n), int(bits), int(bucket))
        entry = self._entries.get(key)
        if entry is None:
            entry = _Entry(
                backend, int(m), int(n), int(bits), int(bucket),
                int(mu), str(machine),
            )
            self._entries[key] = entry
        return entry

    def record_prediction(
        self,
        backend: str,
        m: int,
        n: int,
        bits: int,
        bucket: int,
        seconds: float,
        *,
        mu: int = 8,
        machine: str = "pc",
    ) -> None:
        """Store the cost model's predicted seconds for a candidate.

        Called by :meth:`repro.api.QuantModel.compile` for each pinned
        layer; the drift report backfills the candidates it did not
        choose (regret analysis needs the losers' prices too).  Latest
        prediction wins; the model is deterministic per key, so repeats
        are identical anyway.
        """
        with self._lock:
            entry = self._entry(backend, m, n, bits, bucket, mu, machine)
            entry.predicted_s = float(seconds)

    def record_measurement(
        self,
        backend: str,
        m: int,
        n: int,
        bits: int,
        batch: int,
        seconds: float,
        *,
        mu: int = 8,
        machine: str = "pc",
    ) -> None:
        """Record the measured wall time of one real matmul call.

        ``batch`` is the true token count; it is bucketed here so the
        measurement lands on the same key the planner priced.
        """
        bucket = batch_bucket(batch)
        with self._lock:
            entry = self._entry(backend, m, n, bits, bucket, mu, machine)
            entry.measured.record(float(seconds))

    # -- reading -------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> list[dict]:
        """All entries as JSON-able dicts (order: shape, then engine)."""
        with self._lock:
            entries = sorted(
                self._entries.values(),
                key=lambda e: (e.m, e.n, e.bits, e.bucket, e.backend),
            )
            return [e.to_dict() for e in entries]

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()

    def save(self, path) -> None:
        """Write the snapshot as JSON (the ``python -m repro.obs report
        drift.json`` input format)."""
        payload = {"version": 1, "entries": self.snapshot()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def load(path) -> list[dict]:
    """Read entries saved by :meth:`DriftRecorder.save`."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "entries" in payload:
        return list(payload["entries"])
    if isinstance(payload, list):  # bare entry list, be forgiving
        return payload
    raise ValueError(f"{path}: not a drift telemetry file")


# ----------------------------------------------------------------------
# the process-wide recorder
# ----------------------------------------------------------------------
_RECORDER = DriftRecorder()


def get_recorder() -> DriftRecorder:
    """The process-wide recorder (exists even while drift is off)."""
    return _RECORDER


def enable(*, reset: bool = False) -> DriftRecorder:
    """Turn drift telemetry on; returns the recorder."""
    if reset:
        _RECORDER.reset()
    _rt.set_drift(True)
    return _RECORDER


def disable() -> None:
    """Turn drift telemetry off (recorded entries stay readable)."""
    _rt.set_drift(False)


def is_enabled() -> bool:
    return _rt.DRIFT


def record_prediction(*args, **kwargs) -> None:
    """Module-level convenience onto the global recorder (no-op while
    drift telemetry is disabled)."""
    if _rt.DRIFT:
        _RECORDER.record_prediction(*args, **kwargs)


def record_measurement(*args, **kwargs) -> None:
    """Module-level convenience onto the global recorder (no-op while
    drift telemetry is disabled)."""
    if _rt.DRIFT:
        _RECORDER.record_measurement(*args, **kwargs)
