"""Continuous batching: many live decode streams, one GEMV tick.

The dynamic batcher coalesces *whole requests*; generation needs the
same economics one level lower.  Each live sequence produces one token
per model pass, so n concurrent streams running alone would pay n
model calls -- n rounds of per-layer dispatch and Python glue -- per
position.  :class:`SequenceScheduler` instead drives every stream's
next step through one shared
:class:`~repro.serve.batcher.Batcher`: the decode worker pulls a batch
of ``(token, caches)`` pairs -- whatever subset of sequences is ready
this tick, each at its own position -- and runs them as one
:meth:`~repro.api.CompiledModel.decode_step_many` call.  Sequences
join and leave mid-flight (continuous batching): a new stream's first
step simply lands in the next tick alongside sequences hundreds of
tokens in.

Per-row outputs are bit-identical to running each sequence alone --
the batch-invariant engine contract (see
:mod:`repro.gen.model`) -- so coalescing is purely an economic
decision, never a numeric one.

Streams carry per-sequence deadlines (expiry finishes the stream with
``finish_reason="deadline"``), cooperative cancellation
(:meth:`GenerationStream.close`, wired to client disconnects by the
HTTP layer), and admission control: at ``max_sequences`` live streams,
new ones are refused with
:class:`~repro.serve.batcher.QueueFullError` -- the same backpressure
signal (HTTP 429) the request batcher uses.

Every sequence's KV blocks live on one long-lived
:class:`~repro.core.workspace.Workspace` owned by the scheduler --
never reset, blocks released as each stream finishes -- so a busy
server reuses cache memory across sequence lifetimes instead of
allocating per stream.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from repro._util import check_positive_int
from repro.core.workspace import Workspace
from repro.obs import runtime as _obs
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Gauge,
    Histogram,
    MetricSet,
)
from repro.serve.batcher import (
    Batcher,
    BatcherClosed,
    QueueFullError,
    _ratio,
)

__all__ = [
    "GenMetrics",
    "GenerationStream",
    "MAX_SEQUENCE_TOKENS",
    "SequenceScheduler",
]

MAX_SEQUENCE_TOKENS = 1 << 17
"""Most positions one sequence may hold, prompt plus generated tokens.
A stream reserves its KV cache for all of them when it is admitted, so
a longer request is refused with a ``ValueError`` (HTTP 400)."""


_GEN_COUNTS = (
    ("tokens", "tokens decoded"),
    ("sequences", "sequences admitted"),
    ("completed", "sequences finished"),
    ("cancelled", "sequences cancelled mid-stream"),
    ("errors", "sequences ended by a failed prefill or decode step"),
    ("deadline_expired", "sequences past their deadline"),
    ("rejected", "sequences refused at admission"),
    ("ticks", "batched decode executions"),
)


class GenMetrics(MetricSet):
    """One model's decode counts.

    Decode serving has its own vitals: **tokens/s** (the paper's
    Fig. 10 axis -- decode throughput across all live sequences) and
    **inter-token latency** (what a streaming client feels between
    events).  Tokens/s is measured over busy wall time -- the time at
    least one stream is live -- so idle servers don't dilute the rate.
    Each ``_GEN_COUNTS`` entry is a :class:`~repro.obs.metrics.Counter`
    attribute.
    """

    def __init__(self, live: Callable[[], int]):
        super().__init__()
        self.inter_token = self._family(
            "repro_gen_inter_token_seconds",
            "time between consecutive streamed tokens",
            Histogram(),
        )
        self.prefill = self._family(
            "repro_gen_prefill_seconds", "prompt prefill latency", Histogram()
        )
        # Exemplar-enabled: each decode-tick latency bucket keeps trace
        # ids of recent ``gen.step`` executions, so a slow-tick bucket
        # on /metrics links to the traces of the ticks that filled it.
        self.tick_latency = self._family(
            "repro_gen_tick_seconds",
            "batched decode execution latency (one gen.step tick)",
            Histogram(exemplar_bounds=DEFAULT_LATENCY_BOUNDS),
        )
        self._counters("repro_gen_", _GEN_COUNTS)
        self.tokens_per_s = self._family(
            "repro_gen_tokens_per_s",
            "decode throughput over busy wall time, all sequences",
            Gauge(lambda: _ratio(*self.sample())),
        )
        self.coalescing_ratio = self._family(
            "repro_gen_coalescing_ratio",
            "tokens decoded per batched execution (mean decode batch)",
            Gauge(lambda: _ratio(self.tokens.value, self.ticks.value)),
        )
        self._family(
            "repro_gen_sequences_live",
            "decode streams currently live",
            Gauge(live),
        )
        self.tick_sizes: dict[int, int] = {}
        self._busy_started: float | None = None
        self._busy_seconds = 0.0
        self._active = 0

    def record_admit(self) -> None:
        self.sequences.inc()
        with self._lock:
            if self._active == 0:
                self._busy_started = time.monotonic()
            self._active += 1

    def record_finish(self, reason: str) -> None:
        if reason == "cancelled":
            self.cancelled.inc()
        elif reason == "error":
            self.errors.inc()
        elif reason == "deadline":
            self.deadline_expired.inc()
        else:  # length / eos: the stream ran to its natural end
            self.completed.inc()
        with self._lock:
            # Clamp at zero: an unmatched finish (a teardown race
            # double-counting one stream) must not drive the live count
            # negative -- a negative count means the *next* admit skips
            # starting the busy clock and every later fold is lost, so
            # tokens/s silently inflates forever after.
            if self._active > 0:
                self._active -= 1
                if self._active == 0 and self._busy_started is not None:
                    self._busy_seconds += (
                        time.monotonic() - self._busy_started
                    )
                    self._busy_started = None

    def record_tick(self, size: int) -> None:
        self.ticks.inc()
        self._count_size(self.tick_sizes, size)

    def busy_seconds(self) -> float:
        """Cumulative busy wall time (>= 1 live stream), including the
        in-progress busy period.  Monotonic non-decreasing."""
        with self._lock:
            busy = self._busy_seconds
            if self._busy_started is not None:
                busy += time.monotonic() - self._busy_started
            return busy

    def sample(self) -> tuple[int, float]:
        """``(tokens, busy_seconds)``: the counters the SLO engine
        rates over window deltas."""
        return self.tokens.value, self.busy_seconds()

    def snapshot(self) -> dict:
        """The ``generation`` key of the model's ``/metrics`` JSON
        (latencies in milliseconds)."""
        return {
            **self._values(_GEN_COUNTS),
            "tokens_per_s": self.tokens_per_s.value,
            "coalescing_ratio": self.coalescing_ratio.value,
            "inter_token_ms": self.inter_token.snapshot(1e3),
            "prefill_ms": self.prefill.snapshot(1e3),
            "tick_ms": self.tick_latency.snapshot(1e3),
            "tick_size_counts": self._sizes(self.tick_sizes),
        }


class GenerationStream:
    """One live decode stream: iterate to receive token ids.

    Produced by :meth:`SequenceScheduler.generate`.  Each ``__next__``
    hands back one generated token; the step producing the *next*
    token is enqueued onto the scheduler's shared batcher, so pulling
    concurrently from many streams is what forms decode batches.
    After iteration ends (or :meth:`close`), :attr:`finish_reason` is
    one of ``"length"``, ``"eos"``, ``"deadline"``, ``"cancelled"`` (the
    consumer closed it) or ``"error"`` (a decode step raised), and the
    sequence's KV blocks are back in the arena.
    """

    def __init__(
        self,
        scheduler: "SequenceScheduler",
        prompt: np.ndarray,
        max_new_tokens: int,
        *,
        sampler,
        eos_id: int | None,
        deadline_s: float | None,
    ):
        self._scheduler = scheduler
        self._sampler = sampler
        self._eos_id = eos_id
        self._max_new = max_new_tokens
        admitted = time.monotonic()
        self._deadline = (
            admitted + deadline_s if deadline_s is not None else None
        )
        self.tokens: list[int] = []
        self.finish_reason: str | None = None
        self.retired = False  # decode worker skips retired sequences
        self._inflight = None
        self._last_token_time: float | None = None
        # Finish is claimed under a lock: the HTTP thread (close on
        # disconnect) and the iterating thread (natural end) can race,
        # and a double finish would double-count the stream in
        # GenMetrics and double-release the admission slot.
        self._finish_lock = threading.Lock()
        self.caches = []
        try:
            # Inside the try: a failed cache reservation must still
            # release this stream's admission slot (the except path),
            # or the scheduler would leak _active forever.
            self.caches = scheduler._init_caches(
                prompt.shape[1] + max_new_tokens
            )
            started = time.monotonic()
            logits = scheduler._prefill(prompt, self.caches)
            scheduler.metrics.prefill.record(time.monotonic() - started)
            self._pending = self._sampler.sample(logits)
            self._last_token_time = time.monotonic()
            self._first_token_s = self._last_token_time - admitted
        except BaseException:
            self._finish("error", record=False)
            scheduler._release(self)
            raise

    # -- iteration ------------------------------------------------------
    def __iter__(self) -> "GenerationStream":
        return self

    def __next__(self) -> int:
        if self.finish_reason is not None:
            raise StopIteration
        token = self._pending
        self.tokens.append(token)
        now = time.monotonic()
        metrics = self._scheduler.metrics
        metrics.tokens.inc()
        if self._last_token_time is not None:
            metrics.inter_token.record(now - self._last_token_time)
        self._last_token_time = now
        if len(self.tokens) >= self._max_new:
            self._finish("length")
        elif token == self._eos_id:
            self._finish("eos")
        else:
            try:
                self._pending = self._step(token)
            except TimeoutError:
                self._finish("deadline")
            except BaseException:
                self._finish("error")
                raise
        return token

    def _step(self, token: int) -> int:
        """Enqueue this sequence's next decode step and wait for its
        logits row (the tick batches it with other live sequences)."""
        remaining = None
        if self._deadline is not None:
            remaining = self._deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("sequence deadline expired")
        request = self._scheduler._batcher.enqueue(
            np.int64(token), meta=self
        )
        # On failure _inflight stays set: _finish() then waits for the
        # worker to drop (or finish) the request before the KV blocks
        # are released under it.
        self._inflight = request
        logits = request.result(remaining)
        self._inflight = None
        return self._sampler.sample(logits)

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Cancel the stream (client went away); idempotent."""
        if self.finish_reason is None:
            self._finish("cancelled")

    def _finish(self, reason: str, *, record: bool = True) -> None:
        with self._finish_lock:
            if self.finish_reason is not None:
                return
            self.finish_reason = reason
            self.retired = True
        request, self._inflight = self._inflight, None
        if request is not None:
            request.cancel()
            # Wait -- without a timeout -- for the drop (or the step)
            # to land before releasing the KV blocks: the worker may
            # still be reading/writing them, and a tick can legitimately
            # outlast any fixed bound (cold engine compile, large
            # coalesced batch).  The wait always ends: a still-queued
            # cancelled request is errored by the next purge (one
            # worker wake-up), a picked one is resolved when its tick
            # completes or fails, and close() fails everything queued.
            try:
                request.result()
            except BaseException:
                pass
        for cache in self.caches:
            cache.close()
        if record:
            self._scheduler._record_finish(reason, self._first_token_s)
            self._scheduler._release(self)

    def __enter__(self) -> "GenerationStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequenceScheduler:
    """Continuously-batched decode over one compiled model.

    Parameters
    ----------
    compiled:
        A :class:`~repro.api.CompiledModel` whose underlying model has
        the incremental decode API (``init_cache`` / ``prefill`` /
        ``step_many`` -- e.g. :class:`repro.gen.DecoderLM`).
    max_sequences:
        Live-stream admission limit *and* the decode tick's batch cap.
    max_latency_ms:
        How long a tick waits to coalesce more sequences once one is
        ready (the decode analogue of the batcher's knob; keep small --
        it bounds added inter-token latency).
    name:
        Label for the KV arena and worker thread.
    """

    def __init__(
        self,
        compiled,
        *,
        max_sequences: int = 16,
        max_latency_ms: float = 2.0,
        name: str = "default",
    ):
        check_positive_int(max_sequences, "max_sequences")
        model = compiled.model
        # ``embedding`` distinguishes a token-level LM from the raw
        # encoder stack, which shares the cache/step method names but
        # consumes hidden states rather than token ids.
        for attr in ("init_cache", "prefill", "step_many", "embedding"):
            if getattr(model, attr, None) is None:
                raise TypeError(
                    f"model {type(model).__name__!r} has no incremental "
                    f"decode API (missing {attr}); the sequence "
                    "scheduler needs a DecoderLM-style model"
                )
        self._compiled = compiled
        self.max_sequences = max_sequences
        self.name = name
        self.metrics = GenMetrics(self.active)
        # The KV arena outlives every sequence and is never reset;
        # caches release their blocks back into it on stream finish.
        self._kv = Workspace(name=f"{name}.kv")
        self._batcher = Batcher(
            max_batch=max_sequences,
            max_latency_ms=max_latency_ms,
            max_queue=max_sequences,
        )
        self._lock = threading.Lock()
        self._active = 0
        self._closed = False
        self._worker: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SequenceScheduler":
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is stopped")
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._run,
                    name=f"repro-gen-{self.name}",
                    daemon=True,
                )
                self._worker.start()
        return self

    def stop(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
        self._batcher.close()
        if worker is not None:
            worker.join(timeout=5.0)

    @property
    def running(self) -> bool:
        worker = self._worker
        return worker is not None and worker.is_alive()

    def __enter__(self) -> "SequenceScheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- producer side --------------------------------------------------
    def generate(
        self,
        prompt,
        max_new_tokens: int,
        *,
        temperature: float = 0.0,
        top_k: int | None = None,
        seed: int = 0,
        eos_id: int | None = None,
        deadline_s: float | None = None,
    ) -> GenerationStream:
        """Admit one sequence; returns its token stream.

        Raises :class:`~repro.serve.batcher.QueueFullError` when
        ``max_sequences`` streams are already live (backpressure),
        ``ValueError`` when the prompt plus ``max_new_tokens`` exceeds
        :data:`MAX_SEQUENCE_TOKENS`, and ``RuntimeError`` when the
        scheduler is stopped.  Sampling
        controls mirror :meth:`repro.api.CompiledModel.generate`.
        """
        from repro.gen.sampler import Sampler

        check_positive_int(max_new_tokens, "max_new_tokens")
        if deadline_s is not None and not deadline_s <= threading.TIMEOUT_MAX:
            # Waits take the remaining time as a timeout, and a longer
            # one overflows the platform's clock.
            raise ValueError(
                f"deadline_s must be at most {threading.TIMEOUT_MAX:g}, "
                f"got {deadline_s}"
            )
        ids = np.asarray(prompt, dtype=np.int64)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2 or ids.shape[0] != 1 or not ids.shape[1]:
            raise ValueError(
                f"prompt must be (prompt_len,) or (1, prompt_len) token "
                f"ids, got shape {np.asarray(prompt).shape}"
            )
        if ids.shape[1] + max_new_tokens > MAX_SEQUENCE_TOKENS:
            raise ValueError(
                f"max_new_tokens must be at most "
                f"{MAX_SEQUENCE_TOKENS - ids.shape[1]} for a "
                f"{ids.shape[1]}-token prompt (a sequence holds at most "
                f"{MAX_SEQUENCE_TOKENS} tokens), got {max_new_tokens}"
            )
        sampler = Sampler(temperature=temperature, top_k=top_k, seed=seed)
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is stopped")
            if self._worker is None:
                raise RuntimeError(
                    "scheduler is not started; call start() or use it as "
                    "a context manager"
                )
            if self._active >= self.max_sequences:
                self.metrics.rejected.inc()
                raise QueueFullError(
                    f"{self.max_sequences} sequences are already live"
                )
            self._active += 1
        self.metrics.record_admit()
        try:
            return GenerationStream(
                self,
                ids,
                max_new_tokens,
                sampler=sampler,
                eos_id=eos_id,
                deadline_s=deadline_s,
            )
        except BaseException:
            self._record_finish("error")
            raise

    def active(self) -> int:
        """Streams currently live."""
        with self._lock:
            return self._active

    # -- stream plumbing ------------------------------------------------
    def _init_caches(self, reserve: int):
        return self._compiled.model.init_cache(
            workspace=self._kv, reserve=reserve
        )

    def _prefill(self, ids: np.ndarray, caches) -> np.ndarray:
        if _obs.TRACING:
            from repro.obs.trace import span

            with span(
                "gen.prefill", model=self.name, tokens=int(ids.shape[1])
            ):
                return self._compiled.model.prefill(ids, caches)
        return self._compiled.model.prefill(ids, caches)

    def _record_finish(
        self, reason: str, first_token_s: float = 0.0
    ) -> None:
        """Count a finished stream, and feed the SLO windows one request:
        good with its time to first token when it ran to ``length`` or
        ``eos``, failed on ``error``.  A cancelled or expired stream
        feeds them nothing."""
        self.metrics.record_finish(reason)
        if _obs.SLO and reason not in ("cancelled", "deadline"):
            from repro.obs import slo as _slo

            _slo.record_request(
                self.name, first_token_s, ok=reason != "error"
            )

    def _release(self, stream: GenerationStream) -> None:
        with self._lock:
            self._active -= 1

    # -- the decode worker ----------------------------------------------
    def _run(self) -> None:
        while True:
            try:
                batch = self._batcher.next_batch(timeout=0.25)
            except BatcherClosed:
                return
            if batch is None:
                if self._closed:
                    return
                continue
            # A stream cancelled after its request was picked still
            # reaches us; skipping it here keeps the tick from touching
            # KV blocks its finish already released.
            live, gone = [], []
            for request in batch.requests:
                (gone if request.meta.retired else live).append(request)
            for request in gone:
                request.set_error(
                    BatcherClosed("sequence finished before its step ran")
                )
            if not live:
                continue
            tokens = [int(request.x) for request in live]
            cache_lists = [request.meta.caches for request in live]
            self.metrics.record_tick(len(live))
            tick_trace = None
            started = time.monotonic()
            try:
                from repro.resilience import faults as _faults

                if _faults.ACTIVE:
                    # Inside the try: an injected tick fault fails the
                    # live requests (like a real one), not the loop.
                    _faults.fire("gen.tick")
                if _obs.TRACING:
                    from repro.obs.trace import span

                    with span(
                        "gen.step", model=self.name, sequences=len(live)
                    ) as step_span:
                        # getattr: span() degrades to the no-op span if
                        # tracing raced off since the TRACING check.
                        ctx = getattr(step_span, "context", None)
                        tick_trace = ctx.trace_id if ctx else None
                        logits = self._compiled.decode_step_many(
                            tokens, cache_lists
                        )
                else:
                    logits = self._compiled.decode_step_many(
                        tokens, cache_lists
                    )
            except BaseException as exc:  # noqa: BLE001 -- worker boundary
                for request in live:
                    request.set_error(exc)
                continue
            # The tick's trace id becomes the exemplar on its latency
            # bucket: a slow bucket on /metrics points at a tick trace.
            self.metrics.tick_latency.record(
                time.monotonic() - started, trace_id=tick_trace
            )
            for request, row in zip(live, logits):
                request.set_result(row)
