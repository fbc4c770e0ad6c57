"""Persist compiled matmul engines and whole-model artifacts.

Deployment per the paper's footnote 3: "matrix K instead of B can be
loaded in advance into the system, since the weight matrices are fixed
during inference" -- i.e. what ships is the compiled artifact, not
float weights.  This module serializes exactly that state (``.npz``,
compressed) for *any* engine registered in :mod:`repro.engine`, so an
engine can be compiled once offline and reloaded by the inference
process.

Three on-disk formats coexist:

- **version 1** -- the historical BiQGEMM-only layout (keys, alphas,
  mu, n).  Still written for :class:`~repro.core.kernel.BiQGemm`
  engines, so artifacts produced by earlier releases keep loading and
  new BiQGEMM artifacts stay readable by them.
- **version 2** -- the registry layout: an ``engine_kind`` field names
  the backend, and the remaining arrays are whatever that backend's
  :class:`~repro.engine.registry.EngineEntry` export hook emitted; the
  matching restore hook rebuilds the engine on load.
- **version 3** -- the whole-model layout written by
  :mod:`repro.api.artifact`: a JSON ``manifest`` (config, structure,
  per-layer plans) plus ``layer<i>.<field>`` arrays holding each
  layer's engine payload.  This module owns only the container
  (:func:`save_model_artifact` / :func:`load_model_artifact`, with
  manifest validation); the model semantics live in
  :func:`repro.api.save` / :func:`repro.api.load`.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.kernel import BiQGemm
from repro.core.keys import KeyMatrix

__all__ = [
    "load_engine",
    "load_model_artifact",
    "load_model_manifest",
    "pack_model_into",
    "packed_model_size",
    "save_engine",
    "save_model_artifact",
    "unpack_model_from",
]

_FORMAT_VERSION = 1
_REGISTRY_FORMAT_VERSION = 2
_MODEL_FORMAT_VERSION = 3

_MANIFEST_REQUIRED_FIELDS = ("config", "structure", "layers", "batch_hint")

# What the zip and zlib layers raise for a truncated or bit-flipped
# ``.npz``, on open or on reading a member.  FileNotFoundError and
# PermissionError are OSErrors too, but they say something true about
# the path, so they pass through.
_CORRUPT_FILE_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    NotImplementedError,
    EOFError,
    OSError,
)


@contextmanager
def _open_npz(path: Path):
    """``np.load(path)`` whose failures, in the open or in any read
    inside the block, are ``ValueError``\\ s naming *path*."""
    try:
        with np.load(path) as data:
            yield data
    except (FileNotFoundError, PermissionError):
        raise
    except ValueError as exc:
        if str(path) in str(exc):
            raise
        raise ValueError(f"{path}: {exc}") from exc
    except _CORRUPT_FILE_ERRORS as exc:
        raise ValueError(
            f"{path} is corrupted or truncated "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def save_engine(engine, path: str | Path) -> None:
    """Write an engine's compiled state to *path* (``.npz``).

    :class:`~repro.core.kernel.BiQGemm` uses the version-1 layout;
    every other registered engine goes through its registry export
    hook into the version-2 layout.  Engines that are neither raise
    ``TypeError``.
    """
    path = Path(path)
    if isinstance(engine, BiQGemm):
        np.savez_compressed(
            path,
            format_version=np.int64(_FORMAT_VERSION),
            keys=engine.key_matrix.keys,
            alphas=engine.alphas,
            mu=np.int64(engine.mu),
            n=np.int64(engine.shape[1]),
            # Execution-mode flag, not weight state: layer/serving
            # engines run batch-invariant and a reload must keep
            # producing bit-identical outputs.  Optional on load, so
            # pre-flag files keep working.
            batch_invariant=np.bool_(engine.batch_invariant),
        )
        return
    from repro.engine import engine_entry

    kind = getattr(engine, "backend_name", None)
    if kind is None:
        raise TypeError(
            f"cannot serialize {type(engine).__name__}: not a BiQGemm and "
            "not a registered engine (no backend_name)"
        )
    entry = engine_entry(kind)
    if entry.export is None:
        raise TypeError(f"backend {kind!r} does not support serialization")
    state = entry.export(engine)
    np.savez_compressed(
        path,
        format_version=np.int64(_REGISTRY_FORMAT_VERSION),
        engine_kind=np.bytes_(kind.encode("ascii")),
        **state,
    )


def load_engine(path: str | Path):
    """Reconstruct an engine saved by :func:`save_engine`.

    Validates the format version and the internal consistency of the
    stored arrays (shape/range checks run in the engine constructors),
    so a truncated, corrupted or foreign file fails loudly with a
    ``ValueError``.  Version-1 files load as
    :class:`~repro.core.kernel.BiQGemm`; version-2 files load as
    whatever backend their ``engine_kind`` names (a legacy name maps to
    its current one), provided it is registered in this process.
    """
    path = Path(path)
    if not path.exists():
        # np.savez appends .npz when missing; mirror that on load.
        alt = path.with_name(path.name + ".npz")
        if alt.exists():
            path = alt
        else:
            raise FileNotFoundError(f"no engine file at {path}")
    try:
        with _open_npz(path) as data:
            version = int(data["format_version"])
            if version == _FORMAT_VERSION:
                km = KeyMatrix(
                    keys=data["keys"], mu=int(data["mu"]), n=int(data["n"])
                )
                engine = BiQGemm(km, alphas=data["alphas"])
                if "batch_invariant" in data.files:
                    engine.batch_invariant = bool(data["batch_invariant"])
                return engine
            if version == _REGISTRY_FORMAT_VERSION:
                from repro.engine.registry import (
                    current_backend,
                    engine_entry,
                )

                kind = current_backend(
                    bytes(data["engine_kind"].item()).decode("ascii")
                )
                entry = engine_entry(kind)
                if entry.restore is None:
                    raise ValueError(
                        f"backend {kind!r} does not support deserialization"
                    )
                state = {
                    name: data[name]
                    for name in data.files
                    if name not in ("format_version", "engine_kind")
                }
                return entry.restore(state)
            if version == _MODEL_FORMAT_VERSION:
                raise ValueError(
                    f"{path} is a whole-model artifact (format version "
                    f"{version}); load it with repro.api.load"
                )
            raise ValueError(
                f"unsupported engine format version {version} (expected "
                f"{_FORMAT_VERSION} or {_REGISTRY_FORMAT_VERSION})"
            )
    except KeyError as exc:
        raise ValueError(
            f"{path} is not a serialized engine file (missing field {exc})"
        ) from exc


# ----------------------------------------------------------------------
# version 3: whole-model artifacts
# ----------------------------------------------------------------------
def _resolve_artifact_path(path: str | Path) -> Path:
    path = Path(path)
    if path.exists():
        return path
    # np.savez appends .npz when missing; mirror that on load.
    alt = path.with_name(path.name + ".npz")
    if alt.exists():
        return alt
    raise FileNotFoundError(f"no model artifact at {path}")


def _validate_manifest(manifest) -> dict:
    if not isinstance(manifest, dict):
        raise ValueError(
            f"corrupted model manifest: expected a JSON object, got "
            f"{type(manifest).__name__}"
        )
    missing = [f for f in _MANIFEST_REQUIRED_FIELDS if f not in manifest]
    if missing:
        raise ValueError(
            f"corrupted model manifest: missing field(s) {missing}"
        )
    layers = manifest["layers"]
    if not isinstance(layers, list) or not layers:
        raise ValueError(
            "corrupted model manifest: 'layers' must be a non-empty list"
        )
    for i, entry in enumerate(layers):
        if not isinstance(entry, dict):
            raise ValueError(
                f"corrupted model manifest: layer entry {i} is not an object"
            )
        for key in ("path", "backend", "m", "n", "spec"):
            if key not in entry:
                raise ValueError(
                    f"corrupted model manifest: layer entry {i} is missing "
                    f"{key!r}"
                )
    return manifest


def save_model_artifact(
    path: str | Path,
    *,
    manifest: dict,
    arrays: dict[str, np.ndarray],
) -> None:
    """Write a version-3 whole-model artifact (``.npz``, compressed).

    *manifest* must be JSON-able and carry at least
    ``config/structure/layers/batch_hint``; *arrays* are the per-layer
    engine payloads, keyed ``layer<i>.<field>``.  Validation runs on
    write too, so a malformed manifest never reaches disk.
    """
    _validate_manifest(manifest)
    reserved = {"format_version", "manifest"} & set(arrays)
    if reserved:
        raise ValueError(f"array names collide with reserved fields: {reserved}")
    # No sort_keys: QuantConfig.overrides precedence is declaration
    # order, which a JSON round trip preserves only if we do too.
    blob = json.dumps(manifest).encode("utf-8")
    np.savez_compressed(
        Path(path),
        format_version=np.int64(_MODEL_FORMAT_VERSION),
        manifest=np.frombuffer(blob, dtype=np.uint8),
        **arrays,
    )


def load_model_artifact(
    path: str | Path,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a version-3 artifact back as ``(manifest, arrays)``.

    Fails loudly -- a truncated or corrupted file, a wrong format
    version, a non-JSON or structurally invalid manifest all raise
    ``ValueError`` naming *path* before any engine state is touched.
    """
    path = _resolve_artifact_path(path)
    with _open_npz(path) as data:
        manifest = _read_manifest(data, path)
        arrays = {
            name: data[name]
            for name in data.files
            if name not in ("format_version", "manifest")
        }
    return manifest, arrays


def load_model_manifest(path: str | Path) -> dict:
    """Read only the JSON manifest of a version-3 artifact.

    The cheap peek for registries and serving stores
    (:class:`repro.serve.ModelStore`): config, structure and per-layer
    plans without decompressing any engine payload.  Validation is the
    same as :func:`load_model_artifact`'s.
    """
    path = _resolve_artifact_path(path)
    with _open_npz(path) as data:
        return _read_manifest(data, path)


def _read_manifest(data, path) -> dict:
    """Shared version check + manifest decode over an open ``.npz``."""
    try:
        version = int(data["format_version"])
    except KeyError as exc:
        raise ValueError(
            f"{path} is not a serialized artifact (missing field {exc})"
        ) from exc
    if version != _MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path} has format version {version}, not a whole-model "
            f"artifact (version {_MODEL_FORMAT_VERSION}); "
            "single-engine files load with repro.core.serialize."
            "load_engine"
        )
    if "manifest" not in data.files:
        raise ValueError(f"{path}: corrupted model artifact, no manifest")
    try:
        manifest = json.loads(bytes(data["manifest"].tobytes()))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(
            f"{path}: corrupted model manifest ({exc})"
        ) from exc
    _validate_manifest(manifest)
    return manifest


# ----------------------------------------------------------------------
# packed in-memory layout (shared-memory serving)
# ----------------------------------------------------------------------
# The v3 ``.npz`` container is the *file* format; multi-process serving
# additionally needs the same (manifest, arrays) pair mapped into one
# flat buffer that N worker processes can attach read-only
# (``multiprocessing.shared_memory``).  The layout is deliberately
# dumb: an 8-byte little-endian header length, a JSON header (the
# manifest plus an array table of name/dtype/shape/offset), then each
# array's raw bytes at a 64-byte-aligned offset so every mapped view
# starts cache-line aligned.

_PACK_ALIGN = 64
_PACK_MAGIC = "repro-shm-model"
_PACK_VERSION = 1


def _align(offset: int) -> int:
    return (offset + _PACK_ALIGN - 1) // _PACK_ALIGN * _PACK_ALIGN


def _pack_header(manifest: dict, arrays: dict[str, np.ndarray]):
    """The JSON header + per-array offsets for the packed layout."""
    _validate_manifest(manifest)
    table = []
    offset = 0  # relative to the start of the array region
    prepared: dict[str, np.ndarray] = {}
    for name in sorted(arrays):
        # ascontiguousarray promotes 0-d to 1-d; preserve the original
        # shape so scalar payloads (mu, n) round-trip like the npz path.
        arr = np.asarray(arrays[name])
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        prepared[name] = arr
        offset = _align(offset)
        table.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": int(arr.nbytes),
            }
        )
        offset += arr.nbytes
    header = {
        "magic": _PACK_MAGIC,
        "version": _PACK_VERSION,
        "manifest": manifest,
        "arrays": table,
    }
    blob = json.dumps(header).encode("utf-8")
    return blob, table, prepared, offset


def packed_model_size(manifest: dict, arrays: dict[str, np.ndarray]) -> int:
    """Bytes needed to :func:`pack_model_into` this model."""
    blob, _, _, payload = _pack_header(manifest, arrays)
    return _align(8 + len(blob)) + payload


def pack_model_into(
    buf, manifest: dict, arrays: dict[str, np.ndarray]
) -> int:
    """Write the packed model layout into *buf* (a writable buffer).

    Returns the number of bytes written.  *buf* must be at least
    :func:`packed_model_size` long; the manifest is validated exactly
    like the ``.npz`` path, so a malformed model never reaches shared
    memory.
    """
    blob, table, prepared, payload = _pack_header(manifest, arrays)
    base = _align(8 + len(blob))
    total = base + payload
    view = np.frombuffer(buf, dtype=np.uint8, count=total)
    if view.nbytes < total:
        raise ValueError(
            f"buffer holds {view.nbytes} bytes, packed model needs {total}"
        )
    view[:8] = np.frombuffer(
        len(blob).to_bytes(8, "little"), dtype=np.uint8
    )
    view[8 : 8 + len(blob)] = np.frombuffer(blob, dtype=np.uint8)
    for entry in table:
        arr = prepared[entry["name"]]
        start = base + entry["offset"]
        view[start : start + arr.nbytes] = np.frombuffer(
            arr.tobytes(), dtype=np.uint8
        )
    return total


def unpack_model_from(buf) -> tuple[dict, dict[str, np.ndarray]]:
    """Read ``(manifest, arrays)`` back from a packed buffer.

    The returned arrays are **read-only views** into *buf* -- zero
    copies, which is the whole point: every attaching worker process
    shares one resident copy of the compiled model.  The caller must
    keep the underlying mapping alive as long as the arrays are in use.
    """
    raw = np.frombuffer(buf, dtype=np.uint8)
    if raw.nbytes < 8:
        raise ValueError("packed model buffer is truncated (no header)")
    header_len = int.from_bytes(raw[:8].tobytes(), "little")
    if header_len <= 0 or 8 + header_len > raw.nbytes:
        raise ValueError(
            f"packed model header length {header_len} exceeds the "
            f"{raw.nbytes}-byte buffer"
        )
    try:
        header = json.loads(raw[8 : 8 + header_len].tobytes())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupted packed model header ({exc})") from exc
    if (
        not isinstance(header, dict)
        or header.get("magic") != _PACK_MAGIC
    ):
        raise ValueError("buffer does not hold a packed repro model")
    if header.get("version") != _PACK_VERSION:
        raise ValueError(
            f"packed model version {header.get('version')!r} is not "
            f"supported (expected {_PACK_VERSION})"
        )
    manifest = _validate_manifest(header["manifest"])
    base = _align(8 + header_len)
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        start = base + int(entry["offset"])
        nbytes = int(entry["nbytes"])
        if start + nbytes > raw.nbytes:
            raise ValueError(
                f"packed array {entry['name']!r} overruns the buffer"
            )
        view = (
            raw[start : start + nbytes]
            .view(np.dtype(entry["dtype"]))
            .reshape([int(d) for d in entry["shape"]])
        )
        view.flags.writeable = False
        arrays[entry["name"]] = view
    return manifest, arrays
