"""Front <-> worker wire protocol.

One duplex :func:`multiprocessing.Pipe` per worker.  The front sends
``(op, job_id, payload)`` tuples; the worker replies
``(job_id, True, result)`` or ``(job_id, False, (exc_name, message))``.
Job ids let the front drain stale replies after an abandoned call (one
that timed out), so the pipe never desyncs.

Ops:

``"predict"``   payload = stacked batch array -> output array
``"prefill"``   payload = ``(seq_id, ids, reserve)`` -> last-position
                logits (the worker builds and *keeps* the KV cache)
``"step"``      payload = ``[(seq_id, token), ...]`` -> logits rows,
                one batched ``decode_step_many`` tick
``"release"``   payload = seq_id -> ack (drops the KV cache)
``"ping"``      payload ignored -> ``"pong"``
``"stop"``      job_id/payload ignored; the worker exits its loop

Error mapping is by exception *name* (live exception objects don't
cross a spawn boundary reliably): names in :data:`_EXC_TABLE` rebuild
the matching front-side type so the HTTP status mapping (400 for
``ValueError``, etc.) survives the process hop; anything else comes
back as ``RuntimeError``.  :class:`UnknownSequence` is the worker's
"I don't hold that KV cache" signal -- after a respawn the new process
has no sequence table, and the front treats it exactly like a worker
loss: re-prefill from the accepted-token log.
"""

from __future__ import annotations

__all__ = [
    "UnknownSequence",
    "encode_error",
    "decode_error",
]


class UnknownSequence(RuntimeError):
    """The worker holds no KV cache for the requested sequence id."""


def _poison_error():
    from repro.resilience.faults import PoisonError

    return PoisonError


_EXC_TABLE: dict[str, type[Exception] | None] = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "TimeoutError": TimeoutError,
    "UnknownSequence": UnknownSequence,
}


def encode_error(exc: BaseException) -> tuple[str, str]:
    return (type(exc).__name__, str(exc))


def decode_error(payload: tuple[str, str]) -> Exception:
    name, message = payload
    if name == "PoisonError":
        return _poison_error()(message)
    exc_type = _EXC_TABLE.get(name)
    if exc_type is not None:
        return exc_type(message)
    return RuntimeError(f"worker error {name}: {message}")
