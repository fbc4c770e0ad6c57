"""Lookup-table construction (paper Section III-B, Fig. 4, Algorithm 1).

For every length-``mu`` activation sub-vector ``x``, the dot product with
a ``{-1,+1}^mu`` weight slice takes one of ``2^mu`` values; this module
materializes all of them, in key order, so that
``table[key] == slice . x`` for the key encoding of
:mod:`repro.core.keys`.

Three builders are provided:

:func:`build_table_reference`
    Direct transcription of paper Algorithm 1 / Fig. 4(b) for a single
    sub-vector, scalar loops and all.  The oracle for the fast builders.
:func:`build_tables_dp`
    Vectorized dynamic programming over all sub-vectors and batch columns
    simultaneously.  Uses the doubling recurrence (each step extends the
    table by flipping one more coordinate from ``-1`` to ``+1``), with an
    optional half-table symmetry mode matching Algorithm 1 lines 8-9
    (``r[2^mu - i] = -r[i-1]``).  Cost per table: ``2^mu + mu - 1``
    additions (paper Eq. 6).
:func:`build_tables_gemm`
    The Fig. 4(a) alternative: one batched GEMM against the full sign
    matrix ``M_mu``.  ``mu`` times more arithmetic (paper ``T_c,mm``) but
    a single BLAS call -- the paper notes GPUs may prefer it; on numpy it
    is the faster choice for small ``mu`` as well, which the autotuner
    can exploit.

A note on the paper's pseudocode: Algorithm 1 lines 2-3 read
``r0 <- r0 + x_i`` (a positive sum) while Fig. 4(b) and the key semantics
require ``r0 = -x0 -x1 ... -x_{mu-1}`` (key ``0`` means all ``-1``).  We
follow the figure; the tests pin ``table[0] == -sum(x)``.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.core.keys import MAX_MU

__all__ = [
    "sign_matrix",
    "reshape_input",
    "build_table_reference",
    "build_tables_dp",
    "build_tables_gemm",
    "dp_flop_count",
    "gemm_build_flop_count",
]


def sign_matrix(mu: int) -> np.ndarray:
    """Paper Definition 5: ``M_mu``, all ``2^mu`` sign rows in key order.

    ``M[k, j] = +1`` iff bit ``mu-1-j`` of ``k`` is set, so row ``k`` is
    the sign pattern whose key (per :mod:`repro.core.keys`) is ``k``.
    Returned as ``int8`` of shape ``(2^mu, mu)``.
    """
    check_positive_int(mu, "mu", upper=MAX_MU)
    codes = np.arange(1 << mu, dtype=np.uint32)
    shifts = np.arange(mu - 1, -1, -1, dtype=np.uint32)
    return (((codes[:, None] >> shifts) & 1).astype(np.int8) * 2) - 1


_SIGN_CACHE: dict[tuple[int, str], np.ndarray] = {}


def _sign_matrix_cached(mu: int, dtype: np.dtype) -> np.ndarray:
    """``sign_matrix(mu)`` in *dtype*, cached (read-only) per (mu, dtype).

    The GEMM builder needs the float sign matrix on every call; without
    the cache that astype is a per-call allocation in the hot loop.
    A benign race under threads: entries are idempotent.
    """
    key = (mu, np.dtype(dtype).str)
    cached = _SIGN_CACHE.get(key)
    if cached is None:
        cached = sign_matrix(mu).astype(dtype)
        cached.setflags(write=False)
        _SIGN_CACHE[key] = cached
    return cached


def reshape_input(
    x: np.ndarray,
    mu: int,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reshape an input matrix into the sub-vector tensor ``Xhat``.

    Paper Definition 2 / Fig. 7: ``X in R^{n x b}`` becomes
    ``Xhat in R^{groups x mu x b}`` with
    ``Xhat[g, :, col] == x_col[g*mu : (g+1)*mu]``.  Rows are zero-padded
    up to a multiple of ``mu``; together with the ``-1`` key padding of
    :func:`repro.core.keys.encode_keys` this leaves all products exact.

    Accepts a 1-D vector (promoted to a single column).  The dtype is
    preserved (float32 stays float32).

    When the input is already C-contiguous, floating and ``mu``-aligned
    the result is a zero-copy **view** of *x* and *out* is ignored --
    the replace phase then costs nothing.  Otherwise the padded copy is
    written into *out* (which must be a C-contiguous ``(groups, mu, b)``
    array of the input's float dtype) or into a fresh allocation.
    """
    check_positive_int(mu, "mu", upper=MAX_MU)
    arr = np.asarray(x)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"x must be 1-D or 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    n, b = arr.shape
    groups = -(-n // mu)
    if n == groups * mu and arr.flags.c_contiguous:
        return arr.reshape(groups, mu, b)
    if out is None:
        out = np.empty((groups, mu, b), dtype=arr.dtype)
    elif out.shape != (groups, mu, b):
        raise ValueError(
            f"out must have shape ({groups}, {mu}, {b}), got {out.shape}"
        )
    elif out.dtype != arr.dtype:
        raise ValueError(f"out dtype {out.dtype} != input dtype {arr.dtype}")
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    flat = out.reshape(groups * mu, b)
    flat[:n] = arr
    flat[n:] = 0
    return out


def build_table_reference(x_sub: np.ndarray, mu: int | None = None) -> np.ndarray:
    """Paper Algorithm 1 for one sub-vector, transcribed with scalar loops.

    Phases (annotated as in Fig. 4(b)):

    - lines 2-3: ``r[0] = -(x0 + x1 + ... + x_{mu-1})`` (all-minus entry;
      see the module docstring for the sign-convention note),
    - lines 4-7: dynamic programming, ``r[k] = r[j] + 2 * x[mu-i]`` fills
      keys ``2^{i-1} .. 2^i - 1`` for ``i = 1 .. mu-1``,
    - lines 8-9: symmetry, ``r[2^mu - i] = -r[i-1]`` fills the upper half.

    Returns the full table of ``2^mu`` float64 entries in key order.
    """
    x = np.asarray(x_sub, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"x_sub must be 1-D, got shape {x.shape}")
    if mu is None:
        mu = x.shape[0]
    check_positive_int(mu, "mu", upper=MAX_MU)
    if x.shape[0] != mu:
        raise ValueError(f"x_sub has length {x.shape[0]}, expected mu={mu}")
    r = np.zeros(1 << mu, dtype=np.float64)
    # Lines 2-3: the all-(-1) entry.
    for i in range(mu):
        r[0] -= x[i]
    # Lines 4-7: fill keys 1 .. 2^{mu-1} - 1 by flipping one more
    # coordinate (from the back) to +1.
    k = 1
    for i in range(1, mu):
        for j in range(1 << (i - 1)):
            r[k] = r[j] + 2.0 * x[mu - i]
            k += 1
    # Lines 8-9: upper half by negation symmetry.
    for i in range(1, (1 << (mu - 1)) + 1):
        r[(1 << mu) - i] = -r[i - 1]
    return r


def _check_table_out(
    out: np.ndarray, groups: int, mu: int, b: int, dtype: np.dtype
) -> np.ndarray:
    if out.shape != (groups, 1 << mu, b):
        raise ValueError(
            f"out must have shape ({groups}, {1 << mu}, {b}), "
            f"got {out.shape}"
        )
    if out.dtype != dtype:
        raise ValueError(f"out dtype {out.dtype} != table dtype {dtype}")
    return out


def build_tables_dp(
    xhat: np.ndarray,
    *,
    use_symmetry: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized Algorithm 1 over all sub-vectors and batch columns.

    Parameters
    ----------
    xhat:
        ``(groups, mu, b)`` tensor from :func:`reshape_input`.
    use_symmetry:
        When true (default, as in Algorithm 1), only the lower half of
        each table is computed by the doubling recurrence and the upper
        half is the reverse-negation (lines 8-9).  When false the
        recurrence runs all the way, which costs the same O(2^mu) adds
        but is branch-free -- useful for comparing against the paper's
        claim that the two are interchangeable.
    out:
        Optional ``(groups, 2^mu, b)`` destination in the table dtype;
        every entry is overwritten, so a workspace buffer can be
        reused across calls without clearing.

    Returns
    -------
    ``(groups, 2^mu, b)`` table tensor ``Q`` in the dtype of *xhat*:
    ``Q[g, k, col]`` is the dot product of sign pattern ``k`` with
    ``xhat[g, :, col]``.  The per-key batch rows are contiguous, the
    SIMD-friendly arrangement of paper Fig. 6.
    """
    q = _validate_xhat(xhat)
    groups, mu, b = q.shape
    if out is None:
        out = np.empty((groups, 1 << mu, b), dtype=q.dtype)
    else:
        out = _check_table_out(out, groups, mu, b, q.dtype)
    # Entry 0 is -(sum of the sub-vector).  Folded explicitly rather
    # than with q.sum(axis=1): np.add.reduce picks a pairwise or
    # sequential order depending on the array's strides (batch width),
    # which would make table values -- and thus served layer outputs --
    # depend on how many columns share the call.  The explicit fold is
    # order-fixed for every batch size (serving batch-invariance).
    # The fold runs in a small contiguous temporary, not in
    # ``out[:, 0, :]`` directly: numpy's unary ufuncs misread strided
    # inputs written to strided outputs when the inner axis has size 1
    # (batch 1), so the strided-to-strided in-place spelling is unsafe.
    base = np.negative(q[:, 0, :])
    for j in range(1, mu):
        base -= q[:, j, :]
    out[:, 0, :] = base
    limit = mu - 1 if (use_symmetry and mu >= 1) else mu
    # Doubling: after step s the first 2^s entries cover all sign
    # patterns of the last s coordinates (others at -1).
    for s in range(limit):
        j = mu - 1 - s
        half = 1 << s
        np.add(
            out[:, :half, :],
            2.0 * q[:, j : j + 1, :],
            out=out[:, half : 2 * half, :],
        )
    if use_symmetry:
        top = 1 << (mu - 1)
        np.negative(out[:, top - 1 :: -1, :], out=out[:, top:, :])
    return out


def build_tables_gemm(
    xhat: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Fig. 4(a) construction: ``Q = M_mu . Xhat`` as one batched GEMM.

    Same output layout (and optional *out* destination) as
    :func:`build_tables_dp`; costs ``2^mu * mu`` multiply-adds per
    table (``T_c,mm``) instead of the DP's ``2^mu`` additions, but maps
    onto a single dense matmul.
    """
    q = _validate_xhat(xhat)
    groups, mu, b = q.shape
    if out is not None:
        out = _check_table_out(out, groups, mu, b, q.dtype)
    m_mu = _sign_matrix_cached(mu, q.dtype)
    # (2^mu, mu) @ (groups, mu, b) -> (groups, 2^mu, b)
    return np.matmul(m_mu, q, out=out)


def _validate_xhat(xhat: np.ndarray) -> np.ndarray:
    q = np.asarray(xhat)
    if q.ndim != 3:
        raise ValueError(
            f"xhat must be (groups, mu, b) from reshape_input, got {q.shape}"
        )
    mu = q.shape[1]
    check_positive_int(mu, "mu", upper=MAX_MU)
    if not np.issubdtype(q.dtype, np.floating):
        q = q.astype(np.float64)
    return q


def dp_flop_count(mu: int, groups: int, batch: int) -> int:
    """Additions performed by the DP builder (paper Eq. 6).

    ``(2^mu + mu - 1) * groups * batch``: ``mu-1`` adds for the seed sum
    plus one add per remaining entry (negations counted as adds).
    """
    check_positive_int(mu, "mu", upper=MAX_MU)
    return ((1 << mu) + mu - 1) * groups * batch


def gemm_build_flop_count(mu: int, groups: int, batch: int) -> int:
    """Multiply-adds of the GEMM builder (paper ``T_c,mm``): ``2^mu * mu``
    per table."""
    check_positive_int(mu, "mu", upper=MAX_MU)
    return (1 << mu) * mu * groups * batch
