"""SLO engine: declarative objectives and burn-rate alerts.

A :class:`SLOSpec` declares an objective per served model -- a latency
quantile ("95% of requests under 50 ms"), availability ("99.9%
succeed"), or decode throughput ("the continuous batcher sustains 500
tokens/s") -- and an :class:`SLOEngine` evaluates each spec by the SRE
**multi-window burn rate**: the rate at which the error budget is being
spent over a fast (~5 min) and a slow (~1 h) window of monotonic time.
Burning fast on *both* windows means the problem is real and
sustained, not a blip; each spec carries an alert state machine
``ok -> warn -> page`` with hysteresis on the fast window so recovery
is observable.

Listeners subscribe to state transitions.  The serving layer (see
:class:`repro.serve.Server`) acts on one state only: on ``page`` it
sheds new admissions with 429 + ``Retry-After`` while queued requests
and live streams drain.  ``warn`` is an alert, not an actuator: it is
reported on ``GET /slo`` and in the transition log line, and changes
no serving parameter.

Hot-path cost: request recording guards on
:data:`repro.obs.runtime.SLO`, one module-attribute read when off.
Recording aggregates into per-second buckets, so memory is bounded by
the slow window, not the request rate.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs import runtime as _rt

__all__ = [
    "SLOEngine",
    "SLOSpec",
    "SLOStatus",
    "clear_engine",
    "get_engine",
    "record_request",
    "set_engine",
]

#: Alert states, mild to severe; transitions step through this order.
STATES = ("ok", "warn", "page")

_KINDS = ("latency", "availability", "tokens_per_s")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective over a served model.

    Parameters
    ----------
    name:
        Unique spec name (the ``/slo`` key).
    model:
        Served model the spec watches (``"*"`` = every model pooled).
    kind:
        ``"latency"`` -- a request is good when it finishes ok within
        ``threshold_s``; ``objective`` is the fraction that must
        (0.95 = "p95 under threshold").  ``"availability"`` -- a
        request is good when it does not error.  ``"tokens_per_s"`` --
        decode throughput sampled from the model's decode counters
        (:meth:`SLOEngine.attach_gen_source`) must stay above
        ``min_tokens_per_s``.
    threshold_s:
        Latency bound in seconds (``latency`` kind only).
    objective:
        Good fraction the SLO promises (error budget = 1 - objective).
    min_tokens_per_s:
        Throughput floor (``tokens_per_s`` kind only).
    shortfall_budget:
        Relative throughput shortfall treated as a full burn of 1.0
        (``tokens_per_s`` kind): burn = (1 - measured/floor) / budget.
    fast_window_s / slow_window_s:
        The two burn-rate windows (monotonic seconds).
    warn_burn / page_burn:
        Burn-rate thresholds; both windows must exceed one to trip.
    min_events:
        Events a window needs before its burn rate is trusted.
    """

    name: str
    model: str = "*"
    kind: str = "latency"
    threshold_s: float | None = None
    objective: float = 0.95
    min_tokens_per_s: float | None = None
    shortfall_budget: float = 0.05
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    warn_burn: float = 2.0
    page_burn: float = 8.0
    min_events: int = 1

    def __post_init__(self):
        if not self.name:
            raise ValueError("SLOSpec needs a name")
        if self.kind not in _KINDS:
            raise ValueError(
                f"kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.kind == "latency" and (
            self.threshold_s is None or self.threshold_s <= 0
        ):
            raise ValueError("latency SLOs need a positive threshold_s")
        if self.kind == "tokens_per_s" and (
            self.min_tokens_per_s is None or self.min_tokens_per_s <= 0
        ):
            raise ValueError(
                "tokens_per_s SLOs need a positive min_tokens_per_s"
            )
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if not 0.0 < self.shortfall_budget <= 1.0:
            raise ValueError(
                "shortfall_budget must be in (0, 1], got "
                f"{self.shortfall_budget}"
            )
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError(
                "windows must satisfy 0 < fast_window_s <= slow_window_s"
            )
        if self.warn_burn <= 0 or self.page_burn < self.warn_burn:
            raise ValueError(
                "burn thresholds must satisfy 0 < warn_burn <= page_burn"
            )
        if self.min_events < 1:
            raise ValueError("min_events must be >= 1")

    def matches(self, model: str) -> bool:
        return self.model == "*" or self.model == model

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "model": self.model,
            "kind": self.kind,
            "objective": self.objective,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "warn_burn": self.warn_burn,
            "page_burn": self.page_burn,
        }
        if self.kind == "latency":
            out["threshold_s"] = self.threshold_s
        if self.kind == "tokens_per_s":
            out["min_tokens_per_s"] = self.min_tokens_per_s
            out["shortfall_budget"] = self.shortfall_budget
        return out


class _BurnWindow:
    """Good/bad events in per-second buckets over a bounded horizon.

    Memory is O(horizon seconds) regardless of request rate; the burn
    rate over any window <= horizon is an exact bucket sum (off by at
    most the one-second bucket granularity at the window edge).
    """

    __slots__ = ("_buckets", "_horizon")

    def __init__(self, horizon_s: float):
        self._horizon = float(horizon_s)
        self._buckets: deque[list] = deque()  # [second, total, bad]

    def record(self, now: float, bad: bool) -> None:
        second = int(now)
        if self._buckets and self._buckets[-1][0] == second:
            bucket = self._buckets[-1]
        else:
            bucket = [second, 0, 0]
            self._buckets.append(bucket)
            horizon = now - self._horizon - 1.0
            while self._buckets and self._buckets[0][0] < horizon:
                self._buckets.popleft()
        bucket[1] += 1
        if bad:
            bucket[2] += 1

    def rates(self, now: float, window_s: float) -> tuple[int, int]:
        """``(total, bad)`` over the trailing *window_s* seconds."""
        cutoff = now - window_s
        total = bad = 0
        for second, n, b in reversed(self._buckets):
            if second < cutoff:
                break
            total += n
            bad += b
        return total, bad


class _ThroughputWindow:
    """Counter samples ``(t, tokens, busy_s)`` for windowed rates."""

    __slots__ = ("_samples", "_horizon")

    def __init__(self, horizon_s: float):
        self._horizon = float(horizon_s)
        self._samples: deque[tuple] = deque()

    def sample(self, now: float, tokens: int, busy_s: float) -> None:
        self._samples.append((now, tokens, busy_s))
        horizon = now - self._horizon - 1.0
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def rate(self, now: float, window_s: float) -> float | None:
        """Tokens per busy second over the trailing window (None when
        the window has no decode activity to measure)."""
        if len(self._samples) < 2:
            return None
        cutoff = now - window_s
        base = self._samples[0]
        for sample in self._samples:
            if sample[0] > cutoff:
                break
            base = sample
        head = self._samples[-1]
        d_tokens = head[1] - base[1]
        d_busy = head[2] - base[2]
        if d_busy <= 1e-9:
            return None
        return d_tokens / d_busy


@dataclass
class SLOStatus:
    """Mutable evaluation state for one spec."""

    spec: SLOSpec
    state: str = "ok"
    fast_burn: float = 0.0
    slow_burn: float = 0.0
    measured: float | None = None
    events_fast: int = 0
    events_slow: int = 0
    last_transition: float | None = None
    transitions: deque = field(default_factory=lambda: deque(maxlen=32))

    def to_dict(self) -> dict:
        out = self.spec.to_dict()
        out.update(
            state=self.state,
            fast_burn=self.fast_burn,
            slow_burn=self.slow_burn,
            events_fast=self.events_fast,
            events_slow=self.events_slow,
            transitions=[
                {"at_s": at, "from": old, "to": new}
                for at, old, new in self.transitions
            ],
        )
        if self.measured is not None:
            out["measured"] = self.measured
        return out


class SLOEngine:
    """Evaluates :class:`SLOSpec` burn rates and runs the alert state
    machine; thread-safe, with listener callbacks on transitions."""

    def __init__(
        self,
        specs,
        *,
        clock=time.monotonic,
        eval_interval_s: float = 0.25,
    ):
        specs = list(specs)
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate spec names in {names}")
        self._clock = clock
        self._eval_interval = float(eval_interval_s)
        self._lock = threading.Lock()
        self._specs = specs
        self._status = {spec.name: SLOStatus(spec) for spec in specs}
        # Per-spec event windows (latency/availability) -- each spec
        # classifies good/bad by its own threshold, so they cannot
        # share buckets.
        self._windows = {
            spec.name: _BurnWindow(spec.slow_window_s)
            for spec in specs
            if spec.kind in ("latency", "availability")
        }
        self._throughput: dict[str, _ThroughputWindow] = {}
        self._gen_sources: dict[str, object] = {}
        self._listeners: list = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- wiring --------------------------------------------------------
    @property
    def specs(self) -> list[SLOSpec]:
        return list(self._specs)

    def subscribe(self, fn) -> None:
        """Register ``fn(spec, old_state, new_state)`` for transitions
        (called outside the engine lock, evaluator thread)."""
        with self._lock:
            self._listeners.append(fn)

    def attach_gen_source(self, model: str, sample) -> None:
        """Point ``tokens_per_s`` specs at a model's decode counters:
        *sample* returns ``(tokens, busy_seconds)``, both monotonic
        (:meth:`repro.serve.sequences.GenMetrics.sample`)."""
        with self._lock:
            self._gen_sources[model] = sample
            horizon = max(
                (
                    spec.slow_window_s
                    for spec in self._specs
                    if spec.kind == "tokens_per_s"
                ),
                default=0.0,
            )
            if horizon and model not in self._throughput:
                self._throughput[model] = _ThroughputWindow(horizon)

    def detach_gen_source(self, model: str) -> None:
        with self._lock:
            self._gen_sources.pop(model, None)
            self._throughput.pop(model, None)

    # -- recording (hot path; caller guards on runtime.SLO) ------------
    def record_request(
        self, model: str, seconds: float, ok: bool = True
    ) -> None:
        """Feed one finished request into every matching spec window."""
        now = self._clock()
        with self._lock:
            for spec in self._specs:
                if spec.kind == "tokens_per_s" or not spec.matches(model):
                    continue
                if spec.kind == "latency":
                    bad = (not ok) or seconds > spec.threshold_s
                else:  # availability
                    bad = not ok
                self._windows[spec.name].record(now, bad)

    # -- evaluation ----------------------------------------------------
    @staticmethod
    def _next_state(spec: SLOSpec, state: str, fast: float, slow: float):
        if fast >= spec.page_burn and slow >= spec.page_burn:
            return "page"
        if state == "page" and fast >= spec.warn_burn:
            return "page"  # hold the page until the fast window cools
        if fast >= spec.warn_burn and slow >= spec.warn_burn:
            return "warn"
        if state in ("warn", "page") and fast >= 1.0:
            return "warn"  # hold warn while still overspending budget
        return "ok"

    def _burn(self, spec: SLOSpec, status: SLOStatus, now: float):
        if spec.kind in ("latency", "availability"):
            window = self._windows[spec.name]
            budget = 1.0 - spec.objective
            burns = []
            for window_s, attr in (
                (spec.fast_window_s, "events_fast"),
                (spec.slow_window_s, "events_slow"),
            ):
                total, bad = window.rates(now, window_s)
                setattr(status, attr, total)
                if total < spec.min_events:
                    burns.append(0.0)
                else:
                    burns.append((bad / total) / budget)
            status.measured = None
            return burns
        # tokens_per_s: rate the sampled decode counters over each
        # window.
        burns = []
        measured_fast = None
        for window_s, attr in (
            (spec.fast_window_s, "events_fast"),
            (spec.slow_window_s, "events_slow"),
        ):
            rates = []
            for model, window in self._throughput.items():
                if not spec.matches(model):
                    continue
                rate = window.rate(now, window_s)
                if rate is not None:
                    rates.append(rate)
            setattr(status, attr, len(rates))
            if not rates:
                burns.append(0.0)
                continue
            measured = sum(rates)  # pooled decode throughput
            if attr == "events_fast":
                measured_fast = measured
            shortfall = max(0.0, 1.0 - measured / spec.min_tokens_per_s)
            burns.append(shortfall / spec.shortfall_budget)
        status.measured = measured_fast
        return burns

    def evaluate(self, now: float | None = None) -> list[dict]:
        """Recompute every spec's burn rates and step the state
        machines; fires transition listeners.  Returns status dicts."""
        if now is None:
            now = self._clock()
        fired = []
        with self._lock:
            for model, sample in self._gen_sources.items():
                window = self._throughput.get(model)
                if window is None:
                    continue
                tokens, busy = sample()
                window.sample(now, int(tokens), float(busy))
            out = []
            for spec in self._specs:
                status = self._status[spec.name]
                fast, slow = self._burn(spec, status, now)
                status.fast_burn = fast
                status.slow_burn = slow
                new = self._next_state(spec, status.state, fast, slow)
                if new != status.state:
                    old, status.state = status.state, new
                    status.last_transition = now
                    status.transitions.append((now, old, new))
                    fired.append((spec, old, new))
                out.append(status.to_dict())
            listeners = list(self._listeners)
        for spec, old, new in fired:
            for fn in listeners:
                try:
                    fn(spec, old, new)
                except Exception:  # noqa: BLE001 -- listener bug must
                    pass  # not take the evaluator down
        return out

    def state(self, model: str) -> str:
        """The most severe current state among specs matching *model*
        (admission checks read this)."""
        worst = 0
        with self._lock:
            for spec in self._specs:
                if spec.matches(model):
                    worst = max(
                        worst, STATES.index(self._status[spec.name].state)
                    )
        return STATES[worst]

    def worst_state(self) -> str:
        """The most severe current state across *all* specs (the
        server's SLO mode -- one spec recovering must not hide what
        another still reports)."""
        worst = 0
        with self._lock:
            for status in self._status.values():
                worst = max(worst, STATES.index(status.state))
        return STATES[worst]

    def snapshot(self) -> dict:
        """The spec half of the ``GET /slo`` payload (evaluates first,
        so a scrape is never stale)."""
        return {"enabled": _rt.SLO, "specs": self.evaluate()}

    # -- evaluator thread ----------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-slo", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self._eval_interval):
            self.evaluate()


# ----------------------------------------------------------------------
# the process-wide engine (mirrors trace/drift: one global, flag-gated)
# ----------------------------------------------------------------------
_ENGINE: SLOEngine | None = None
_ENGINE_LOCK = threading.Lock()


def get_engine() -> SLOEngine | None:
    """The installed engine, or None while SLOs are not configured."""
    return _ENGINE


def set_engine(engine: SLOEngine) -> SLOEngine:
    """Install *engine* as the process SLO engine and flip
    :data:`repro.obs.runtime.SLO` on."""
    global _ENGINE
    with _ENGINE_LOCK:
        _ENGINE = engine
        _rt.set_slo(True)
    return engine


def clear_engine() -> None:
    """Uninstall the engine and flip the flag off."""
    global _ENGINE
    with _ENGINE_LOCK:
        _rt.set_slo(False)
        _ENGINE = None


def record_request(model: str, seconds: float, ok: bool = True) -> None:
    """Module-level convenience onto the installed engine (no-op while
    SLOs are off -- callers guard on :data:`repro.obs.runtime.SLO`)."""
    engine = _ENGINE
    if engine is not None:
        engine.record_request(model, seconds, ok)
