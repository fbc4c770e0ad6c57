"""Build, cache and bind the native library (``_lutq.c`` + ``_json.c``).

:func:`load` compiles the package's two C sources once with the host
``gcc`` into one shared library and binds it through stdlib
:mod:`ctypes`.  The library holds:

- the LUT query kernel (``_lutq.c``), through which the ``biqgemm``
  engine (:mod:`repro.engine.compiled`) runs every native call;
- the attention folds (``_lutq.c``) -- the ``QK^T`` and ``AV`` products
  of :mod:`repro.nn.attention` and the denominator of
  :func:`repro.nn.functional.softmax`;
- the ``/predict`` JSON codec (``_json.c``, with the Ryu power tables
  of ``_pow5.h``) that :mod:`repro.serve.wire` uses to read a request's
  ``"input"`` array and to write the reply's ``"output"``, byte for
  byte what :mod:`json` reads and writes.

It loads lazily, on the first call that wants it, never at import.
There is no switch: when no library can be built or loaded (no
compiler, unwritable cache, foreign platform) :func:`load` logs one
warning for the process and returns ``None``, and every caller serves
through its numpy or :mod:`json` fallback, which gives the same bits
and bytes.

The shared library is cached in ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``) under a name keyed by a hash of every source file,
the compiler flags and the platform, so an edited source or a
different machine never loads a stale build.  A build writes a
temporary file and publishes it with an atomic :func:`os.replace`:
processes that start together (cluster workers) may each build, but
none ever loads a partial file.  A cache hit spawns no subprocess.
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
    "CFLAGS", "DTYPES", "Kernel", "Plan", "address", "cache_dir", "load",
    "status",
]

_LOG = logging.getLogger("repro.engine.native")

SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in ("_lutq.c", "_json.c", "_pow5.h")
)
"""Every file the build reads; the ``.c`` files are compiled."""

CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
"""Compiler flags.  ``-ffp-contract=off`` keeps ``y += acc * alpha``
and the attention folds' ``acc + a * b`` a separate multiply and add
(no fused multiply-add), as numpy computes them;
``-ffast-math``/``-Ofast`` would reassociate the folds and are
never used.  No ``-march``: on x86-64 the LUT kernel's wider tiles
carry ``target_clones`` for x86-64-v3 (AVX2) and the baseline ISA, and
an ifunc picks one when the library loads, so one cached build serves
every x86-64 host with the same bits (``_lutq.c``'s header).  An
AVX-512 clone measured slower than the AVX2 one and is not built."""

DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
"""Activation dtypes the LUT kernel computes in (other dtypes fall
back).  The attention folds compute in float64 only."""


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

    fold_dot: Callable[..., int]
    """``fold_dot(nlead, geom, a, b, out)``: the batched float64 left
    fold ``out[..., i, j] = sum_c a[..., i, c] * b[..., j, c]`` over
    strided operands; *geom* is the address of an int64 array of
    shapes and byte strides laid out as ``_lutq.c`` documents, and
    *a*, *b*, *out* the addresses of the first elements.  Returns 0, or
    nonzero for a geometry outside the kernel's envelope."""

    fold_softmax: Callable[..., int]
    """``fold_softmax(nlead, geom, x)``: divides each row of the
    float64 array *x* (along its last *geom* dim) by the row's left-fold
    sum, in place.  Returns 0, or nonzero as *fold_dot*."""

    json_parse_input: Callable[..., int]
    """``json_parse_input(body, len, out, cap, geom, geom_cap)``:
    parses the ``"input"`` array of the JSON object *body* into at most
    *cap* float64 values at *out*, and writes ``[ndim, start, end,
    shape...]`` into the *geom_cap* int64 slots at *geom*.  Returns the
    value count, or -1 for a body outside the fast path (which includes
    arrays of more than ``geom_cap - 3`` or 32 dims)."""

    json_format_bytes: Callable[..., int]
    """``json_format_bytes(ndim, shape)``: the buffer size
    *json_format* needs for a float64 array of this shape."""

    json_format: Callable[..., int]
    """``json_format(x, ndim, shape, out)``: writes the C-ordered
    float64 array at *x* as ``json.dumps(x.tolist())`` writes it, and
    returns the byte count."""


def address(arr: np.ndarray) -> int:
    """The address of *arr*'s first element.

    ``arr.ctypes.data`` builds a helper object per call and costs about
    three times as much as ``ctypes.c_char.from_buffer``, which serves
    the writable contiguous arrays of the hot path.
    """
    flags = arr.flags
    if flags.writeable:
        if flags.c_contiguous:
            return ctypes.addressof(ctypes.c_char.from_buffer(arr))
        if flags.f_contiguous:
            return ctypes.addressof(ctypes.c_char.from_buffer(arr.T))
    return arr.ctypes.data


def cache_dir() -> Path:
    """Where built libraries are cached (the user cache directory)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _library_path() -> Path:
    # CRC-32, not hashlib: the key only tells builds apart, and
    # hashlib's OpenSSL import costs every serving process ~3 MiB RSS.
    key = zlib.crc32(
        f"{' '.join(CFLAGS)}|{sys.platform}-{platform.machine()}".encode()
    )
    for source in SOURCES:
        key = zlib.crc32(source.read_bytes(), key)
    return cache_dir() / f"lutq-{key:08x}.so"


def _build(target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            [
                "gcc", *CFLAGS, "-o", tmp,
                *(str(s) for s in SOURCES if s.suffix == ".c"),
            ],
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
    fold_dot = lib.fold_dot
    fold_dot.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                         ctypes.c_void_p, ctypes.c_void_p]
    fold_dot.restype = ctypes.c_int
    fold_softmax = lib.fold_softmax
    fold_softmax.argtypes = [ctypes.c_int64, ctypes.c_void_p,
                             ctypes.c_void_p]
    fold_softmax.restype = ctypes.c_int
    json_parse_input = lib.json_parse_input
    json_parse_input.argtypes = [ctypes.c_char_p, ctypes.c_int64,
                                 ctypes.c_void_p, ctypes.c_int64,
                                 ctypes.c_void_p, ctypes.c_int64]
    json_parse_input.restype = ctypes.c_int64
    json_format_bytes = lib.json_format_bytes
    json_format_bytes.argtypes = [ctypes.c_int64, ctypes.c_void_p]
    json_format_bytes.restype = ctypes.c_int64
    json_format = lib.json_format
    json_format.argtypes = [ctypes.c_void_p, ctypes.c_int64,
                            ctypes.c_void_p, ctypes.c_void_p]
    json_format.restype = ctypes.c_int64
    return Kernel(
        run=run,
        scratch_bytes=scratch_bytes,
        fold_dot=fold_dot,
        fold_softmax=fold_softmax,
        json_parse_input=json_parse_input,
        json_format_bytes=json_format_bytes,
        json_format=json_format,
    )


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
                path = _library_path()
                if not path.exists():
                    _build(path)
                _kernel = _bind(path)
                _path = path
            except (
                OSError, subprocess.SubprocessError, AttributeError
            ) as exc:
                detail = getattr(exc, "stderr", None) or b""
                _LOG.warning(
                    "native library unavailable, the biqgemm engine, "
                    "the attention folds and the /predict JSON codec "
                    "serve through their numpy and json fallbacks: %s %s",
                    exc,
                    detail.decode(errors="replace").strip()[:500],
                )
                _kernel = None
        return _kernel


def status() -> dict:
    """``{"loaded": bool, "path": str | None}`` for this process.

    ``loaded: True`` means the ``biqgemm`` engine, the attention folds
    and the ``/predict`` JSON codec run natively; ``False`` after a
    failed load means all three serve through their fallbacks.  Never
    builds: before the first :func:`load` (no ``biqgemm`` call,
    attention block or ``/predict`` yet) it reports ``loaded: False``.
    """
    kernel = _kernel
    loaded = kernel is not None and kernel is not _UNSET
    return {"loaded": loaded, "path": str(_path) if loaded else None}
