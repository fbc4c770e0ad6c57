"""The JSON bodies of ``POST /predict`` and ``POST /generate``.

Pure functions between request bytes and request dicts, and between a
result and reply bytes; :mod:`repro.serve.server`'s HTTP handler calls
them, on the threaded and the ``--cluster`` front alike.  Every
malformed body raises :class:`ValueError` (the handler's 400).

``/predict`` has a native fast path in the library of
:mod:`repro.engine.native` (``_json.c``), exact with respect to
:mod:`json`:

- :func:`decode_predict` parses the ``"input"`` array in C (``strtod``
  into float64, then a cast to the requested ``float16``, ``float32``
  or ``float64``) and hands the rest of the body to :func:`json.loads`
  with the array swapped for a placeholder.  The array has the dtype,
  shape and bytes ``np.asarray(json.loads(body)["input"], dtype)``
  gives.  Every body the C parser declines (``NaN``/``Infinity``,
  integers over 15 digits, ragged or empty arrays, escaped or duplicate
  keys, other dtypes, bad syntax) goes through the :mod:`json` path, so
  every error keeps its status and message.
- :func:`encode_predict` writes a float ``"output"`` in C with
  shortest round-trip digits and splices it into :func:`json.dumps` of
  the other fields: the bytes equal ``json.dumps`` of the whole reply.

Without the native library both run on :mod:`json` alone.
``tests/contracts/test_json_wire.py`` checks both claims over
generated bodies and arrays.
"""

from __future__ import annotations

import json

import numpy as np

from repro.engine import native

__all__ = ["decode_generate", "decode_predict", "encode_predict"]

_FAST_DTYPES = {
    name: np.dtype(name) for name in ("float16", "float32", "float64")
}
# [ndim, start, end] + shape slots; C declines deeper arrays (and any
# over its own JSON_MAX_DIMS = 32), which then take the json path.
_GEOM_SLOTS = 3 + 32


def _loads(body: bytes):
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON body: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("invalid JSON body: nested too deeply") from exc


# ----------------------------------------------------------------------
# /predict
# ----------------------------------------------------------------------
def decode_predict(body: bytes) -> dict:
    """``{"model": str, "x": ndarray}`` from a ``/predict`` body."""
    kernel = native.load()
    if kernel is not None:
        request = _decode_predict_native(kernel, body)
        if request is not None:
            return request
    return _decode_predict_json(body)


def _decode_predict_native(kernel, body: bytes) -> dict | None:
    """The fast path, or ``None`` for a body it declines."""
    # Values are comma-separated, so this bounds their count.
    cap = body.count(b",") + 1
    values = np.empty(cap, dtype=np.float64)
    geom = np.empty(_GEOM_SLOTS, dtype=np.int64)
    count = kernel.json_parse_input(
        body, len(body), values.ctypes.data, cap, geom.ctypes.data,
        _GEOM_SLOTS,
    )
    if count < 0:
        return None
    ndim, start, end = (int(v) for v in geom[:3])
    try:
        payload = json.loads(body[:start] + b"0" + body[end:])
    except (ValueError, RecursionError):
        return None
    dtype = payload.get("dtype", "float32")
    dtype = _FAST_DTYPES.get(dtype) if isinstance(dtype, str) else None
    if dtype is None or payload.get("input") != 0:
        return None
    x = values[:count].reshape(tuple(int(d) for d in geom[3 : 3 + ndim]))
    return {
        "model": str(payload.get("model", "default")),
        "x": x if dtype == values.dtype else x.astype(dtype),
    }


def _decode_predict_json(body: bytes) -> dict:
    payload = _loads(body)
    if not isinstance(payload, dict) or "input" not in payload:
        raise ValueError('body must be a JSON object with an "input" field')
    dtype = payload.get("dtype", "float32")
    try:
        dtype = np.dtype(dtype)
        x = np.asarray(payload["input"], dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid input array: {exc}") from exc
    if dtype.kind not in "biuf" or dtype.itemsize > 8:
        raise ValueError(
            f"unsupported dtype {str(dtype)!r}: use a bool, integer or "
            "float type of at most 64 bits"
        )
    return {"model": str(payload.get("model", "default")), "x": x}


def encode_predict(model: str, output, request_id: str) -> bytes:
    """The 200 reply: ``json.dumps`` of model, output, shape and id."""
    arr = np.asarray(output)
    shape = list(arr.shape)
    kernel = native.load() if arr.dtype in _FAST_DTYPES.values() else None
    if kernel is None:
        return json.dumps(
            {
                "model": model,
                "output": arr.tolist(),
                "shape": shape,
                "request_id": request_id,
            }
        ).encode("utf-8")
    values = np.asarray(arr, dtype=np.float64, order="C")
    dims = np.zeros(max(arr.ndim, 1), dtype=np.int64)
    dims[: arr.ndim] = shape
    text = np.empty(
        kernel.json_format_bytes(arr.ndim, dims.ctypes.data), dtype=np.uint8
    )
    size = kernel.json_format(
        values.ctypes.data, arr.ndim, dims.ctypes.data, text.ctypes.data
    )
    head = json.dumps({"model": model})[:-1]
    tail = json.dumps({"shape": shape, "request_id": request_id})[1:]
    return b"".join(
        (
            head.encode("utf-8"),
            b', "output": ',
            memoryview(text)[:size],
            b", ",
            tail.encode("utf-8"),
        )
    )


# ----------------------------------------------------------------------
# /generate
# ----------------------------------------------------------------------
# (field, conversion, default); a field with default None is optional
# and JSON null leaves it out.
_GENERATE_FIELDS = (
    ("max_new_tokens", int, 16),
    ("temperature", float, 0.0),
    ("seed", int, 0),
    ("top_k", int, None),
    ("eos_id", int, None),
    ("deadline_ms", float, None),
)


def decode_generate(body: bytes) -> dict:
    """The keyword arguments of :meth:`Server.generate` (plus
    ``"model"``) from a ``/generate`` body."""
    payload = _loads(body)
    if not isinstance(payload, dict) or "prompt" not in payload:
        raise ValueError(
            'body must be a JSON object with a "prompt" field '
            "(a list of token ids)"
        )
    try:
        prompt = np.asarray(payload["prompt"], dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid prompt: {exc}") from exc
    request = {
        "model": str(payload.get("model", "default")),
        "prompt": prompt,
    }
    for key, convert, default in _GENERATE_FIELDS:
        value = payload.get(key, default)
        if value is None and default is None:
            continue
        try:
            request[key] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid {key}: {exc}") from exc
    if "deadline_ms" in request:
        request["deadline_s"] = request.pop("deadline_ms") / 1e3
    return request
