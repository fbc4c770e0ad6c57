"""Build, cache and bind the native LUT query kernel (``_lutq.c``).

:func:`load` compiles the package's C source once with the host
``gcc`` and binds it through stdlib :mod:`ctypes`; the ``biqgemm``
engine (:mod:`repro.engine.compiled`) runs every native call through
it.  There is no switch: when no library can be built or loaded (no
compiler, unwritable cache, foreign platform) :func:`load` logs one
warning for the process and returns ``None``, and the engine serves
every call through its bit-identical numpy fallback.

The shared library is cached in ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``) under a name keyed by a hash of the source, the
compiler flags and the platform, so an edited source or a different
machine never loads a stale build.  A build writes a temporary file and
publishes it with an atomic :func:`os.replace`: processes that start
together (cluster workers) may each build, but none ever loads a
partial file.  A cache hit spawns no subprocess.
"""

from __future__ import annotations

import ctypes
import logging
import os
import platform
import subprocess
import sys
import tempfile
import threading
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "CFLAGS", "DTYPES", "Kernel", "Plan", "cache_dir", "load", "status"
]

_LOG = logging.getLogger("repro.engine.native")

SOURCE = Path(__file__).with_name("_lutq.c")

CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
"""Compiler flags.  ``-ffp-contract=off`` keeps ``y += acc * alpha`` a
separate multiply and add (no fused multiply-add), as numpy computes
it; ``-ffast-math``/``-Ofast`` would reassociate the folds and are
never used.  No ``-march=native``: it measured no gain at batch 1 and
the cached library stays portable across hosts of one architecture."""

DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
"""Activation dtypes the kernel computes in (other dtypes fall back)."""


class Plan(ctypes.Structure):
    """The C ``lutq_plan``: one layer in one dtype, at every batch.

    Holds raw pointers; whoever builds one keeps the arrays alive.  The
    kernel only reads it, so concurrent calls may share one.
    """

    _fields_ = [
        ("m", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("groups", ctypes.c_int64),
        ("tile_g", ctypes.c_int64),
        ("mu", ctypes.c_int32),
        ("bits", ctypes.c_int32),
        ("fp64", ctypes.c_int32),
        ("key_bytes", ctypes.c_int32),
        ("keys", ctypes.c_void_p),
        ("alphas", ctypes.c_void_p),
        ("bias", ctypes.c_void_p),
    ]


class Kernel(NamedTuple):
    """The bound entry points of one loaded library."""

    run: Callable[..., int]
    """``run(plan, batch, tables, x, stride_row, stride_col, y)``:
    *plan* is a ``ctypes.byref`` to a :class:`Plan`, the rest are
    integers (addresses, byte strides).  Returns 0, or nonzero when the
    plan or batch is outside the kernel's envelope."""

    scratch_bytes: Callable[..., int]
    """``scratch_bytes(plan)``: the table scratch *run* needs for
    *plan*, the same at every batch (-1 for an invalid plan)."""


def cache_dir() -> Path:
    """Where built libraries are cached (the user cache directory)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _library_path(source: bytes) -> Path:
    # CRC-32, not hashlib: the key only tells builds apart, and
    # hashlib's OpenSSL import costs every serving process ~3 MiB RSS.
    tag = f"{' '.join(CFLAGS)}|{sys.platform}-{platform.machine()}"
    key = zlib.crc32(tag.encode(), zlib.crc32(source))
    return cache_dir() / f"lutq-{key:08x}.so"


def _build(source_path: Path, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            ["gcc", *CFLAGS, "-o", tmp, str(source_path)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(path: Path) -> Kernel:
    lib = ctypes.CDLL(str(path))
    run = lib.lutq_run
    run.argtypes = [
        ctypes.POINTER(Plan),
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_void_p,
    ]
    run.restype = ctypes.c_int
    scratch_bytes = lib.lutq_scratch_bytes
    scratch_bytes.argtypes = [ctypes.POINTER(Plan)]
    scratch_bytes.restype = ctypes.c_int64
    return Kernel(run=run, scratch_bytes=scratch_bytes)


_UNSET = object()
_lock = threading.Lock()
_kernel = _UNSET
_path: Path | None = None


def load() -> Kernel | None:
    """The bound :class:`Kernel`, or ``None`` when unavailable.

    Builds on the first call in a process if the cache misses; later
    calls return the same result without touching the filesystem.
    ``ctypes`` releases the GIL for the duration of each kernel call.
    """
    global _kernel, _path
    with _lock:
        if _kernel is _UNSET:
            try:
                path = _library_path(SOURCE.read_bytes())
                if not path.exists():
                    _build(SOURCE, path)
                _kernel = _bind(path)
                _path = path
            except (
                OSError, subprocess.SubprocessError, AttributeError
            ) as exc:
                detail = getattr(exc, "stderr", None) or b""
                _LOG.warning(
                    "native LUT query kernel unavailable, the biqgemm "
                    "engine serves through its numpy fallback: %s %s",
                    exc,
                    detail.decode(errors="replace").strip()[:500],
                )
                _kernel = None
        return _kernel


def status() -> dict:
    """``{"loaded": bool, "path": str | None}`` for this process.

    Never builds: before the first :func:`load` (no native call yet)
    it reports ``loaded: False``.
    """
    kernel = _kernel
    loaded = kernel is not None and kernel is not _UNSET
    return {"loaded": loaded, "path": str(_path) if loaded else None}
