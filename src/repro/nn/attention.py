"""Multi-head attention (the paper's Section II-C attention block).

One attention block holds four ``(n x n)`` projection matrices (Q, K, V
and the output projection) -- precisely the GEMMs the paper quantizes.
The projections are injected through the linear factory so the whole
block can run on any registered engine; with
``QuantSpec(backend="auto")`` all four share one plan-cache entry (same
``(m, n, bits)`` key), so the planner prices the shape once and every
projection follows the batch regime -- BiQGEMM for single-token
decoding, dense BLAS for long prefills.  The ``QK^T`` / ``AV`` products
operate on two activations and stay dense float (weight-only
quantization).

Determinism contract (the KV-cache bit-identity foundation)
-----------------------------------------------------------
Neither activation product may run through ``@``/``np.matmul`` or
``np.einsum``: BLAS retiles a GEMM by operand size, so the last row of
a ``(s, d) @ (d, t)`` product is not bit-equal to the ``(1, d) @ (d,
t)`` GEMV of the same row -- and einsum's iterator likewise regroups
its SIMD partial sums as the surrounding (non-contracted!) dimensions
change, so a one-query-row score product disagrees with the same row
of the nine-row product in the last ulp.  Both products are therefore
strict sequential left folds: an elementwise outer product followed by
a running ``cumsum`` along the contraction axis, whose summation
order per output element depends on nothing but the contraction
length (fixed ``head_dim`` for scores; for the context product over
the *variable* sequence axis, appending exactly-zero masked tails
leaves every prefix total bit-identical).  Combined with the
left-fold softmax (:func:`repro.nn.functional.softmax`) this makes a
single-token :meth:`MultiHeadAttention.step` against a KV cache
bit-identical to the corresponding row of the masked full-sequence
recompute -- the invariant every engine's decode path is tested
against.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.nn.functional import softmax
from repro.nn.linear import QuantSpec, make_linear, split_builder_spec

__all__ = ["MultiHeadAttention", "attn_context", "attn_scores"]

# Bound on the outer-product temporary the fold helpers materialize at
# once, in elements (~32 MiB of float64).  The fold walks the
# contraction axis in chunks of this budget, carrying the running sum
# between chunks, so a 512-token prefill peaks at the budget instead of
# the full (seq_q, seq_kv, head_dim) product (~8.6 GiB at seq=512,
# heads=8, head_dim=64).  Chunking never changes bits: seeding a
# chunk's first element with the carry keeps every output element's
# additions in exactly the unchunked left-fold order (and a decode
# step's product fits in one chunk anyway).
FOLD_BUDGET_ELEMS = 4 * 1024 * 1024


def _fold_chunk(total: int, slice_elems: int) -> int:
    """Chunk length along a contraction axis of *total* elements whose
    per-element outer-product slice holds *slice_elems* entries."""
    return max(1, min(total, FOLD_BUDGET_ELEMS // max(slice_elems, 1)))


def attn_scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Unscaled attention scores ``q . k^T`` over the last axis.

    Shapes ``(..., heads, seq_q, head_dim)`` x ``(..., heads, seq_kv,
    head_dim) -> (..., heads, seq_q, seq_kv)``; a strict sequential
    left fold over ``head_dim``, computed in memory-bounded chunks (see
    :data:`FOLD_BUDGET_ELEMS`), so every score is bit-identical
    whatever the surrounding batch/sequence shape (see the module
    docstring).
    """
    d = q.shape[-1]
    slice_shape = np.broadcast_shapes(
        q.shape[:-1] + (1,), k.shape[:-2] + (1,) + k.shape[-2:-1]
    )
    chunk = _fold_chunk(d, int(np.prod(slice_shape, dtype=np.int64)))
    acc = None
    for start in range(0, d, chunk):
        stop = min(d, start + chunk)
        prod = q[..., :, :, None, start:stop] * k[..., None, :, start:stop]
        if acc is not None:
            prod[..., 0] += acc
        np.cumsum(prod, axis=-1, out=prod)
        acc = prod[..., -1]
        if stop < d:
            acc = acc.copy()  # detach the carry so the chunk buffer frees
    return np.ascontiguousarray(acc)


def attn_context(attn: np.ndarray, v: np.ndarray, *, out=None) -> np.ndarray:
    """Probability-weighted values ``attn . v``.

    Shapes ``(..., heads, seq_q, seq_kv)`` x ``(..., heads, seq_kv,
    head_dim) -> (..., heads, seq_q, head_dim)``.

    This contraction runs over the *variable* sequence axis -- the one
    that differs between a decode step (cache length ``t``) and the
    full recompute (final length ``T``).  Like :func:`attn_scores` it
    is a strict sequential left fold over memory-bounded chunks, so
    both chunk boundaries and appended masked positions (probability
    exactly ``0.0``) leave every prefix total bit-identical.
    """
    t = v.shape[-2]
    slice_shape = np.broadcast_shapes(
        attn.shape[:-1] + (1,), v.shape[:-2] + (1,) + v.shape[-1:]
    )
    chunk = _fold_chunk(t, int(np.prod(slice_shape, dtype=np.int64)))
    acc = None
    for start in range(0, t, chunk):
        stop = min(t, start + chunk)
        prod = (
            attn[..., :, start:stop, None] * v[..., None, start:stop, :]
        )
        if acc is not None:
            prod[..., 0, :] += acc
        np.cumsum(prod, axis=-2, out=prod)
        acc = prod[..., -1, :]
        if stop < t:
            acc = acc.copy()  # detach the carry so the chunk buffer frees
    if out is None:
        return np.ascontiguousarray(acc)
    np.copyto(out, acc)
    return out


class MultiHeadAttention:
    """Scaled dot-product attention with ``heads`` parallel heads.

    Parameters
    ----------
    wq, wk, wv, wo:
        Projection weights, each ``(dim, dim)``.
    heads:
        Head count; must divide ``dim``.
    spec:
        Optional :class:`~repro.nn.linear.QuantSpec` quantizing all four
        projections, or a whole-model :class:`~repro.api.QuantConfig`
        (overrides match the projection paths ``q``/``k``/``v``/``o``).
    """

    def __init__(
        self,
        wq: np.ndarray,
        wk: np.ndarray,
        wv: np.ndarray,
        wo: np.ndarray,
        *,
        heads: int,
        spec: QuantSpec | None = None,
    ):
        check_positive_int(heads, "heads")
        spec, qconfig = split_builder_spec(spec)
        dim = np.asarray(wq).shape[0]
        for name, w in (("wq", wq), ("wk", wk), ("wv", wv), ("wo", wo)):
            shape = np.asarray(w).shape
            if shape != (dim, dim):
                raise ValueError(f"{name} must be ({dim}, {dim}), got {shape}")
        if dim % heads != 0:
            raise ValueError(f"heads={heads} must divide dim={dim}")
        self.dim = int(dim)
        self.heads = heads
        self.head_dim = self.dim // heads
        self.q_proj = make_linear(wq, spec=spec)
        self.k_proj = make_linear(wk, spec=spec)
        self.v_proj = make_linear(wv, spec=spec)
        self.o_proj = make_linear(wo, spec=spec)
        if qconfig is not None:
            from repro.api.model import apply_config

            apply_config(self, qconfig)

    def _split(self, x: np.ndarray) -> np.ndarray:
        # (batch, seq, dim) -> (batch, heads, seq, head_dim)
        b, s, _ = x.shape
        return x.reshape(b, s, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def __call__(
        self,
        query: np.ndarray,
        key_value: np.ndarray | None = None,
        *,
        mask: np.ndarray | None = None,
        cache=None,
    ) -> np.ndarray:
        """Attend *query* over *key_value* (self-attention when omitted).

        Shapes: ``query`` is ``(batch, seq_q, dim)``; ``key_value`` is
        ``(batch, seq_kv, dim)``; ``mask`` broadcasts against
        ``(batch, heads, seq_q, seq_kv)`` with ``True`` = *masked out*.

        *cache* (a :class:`repro.gen.KVCache`, batch 1, empty) makes
        this the **prefill** of an incremental sequence: the projected
        K/V blocks are written into it so later :meth:`step` calls
        attend over them.  A cross-attention prefill (*key_value*
        given) freezes the cache -- the encoder memory never changes,
        so steps only re-project the query.
        """
        q_in = np.asarray(query, dtype=np.float64)
        if q_in.ndim != 3 or q_in.shape[-1] != self.dim:
            raise ValueError(
                f"query must be (batch, seq, {self.dim}), got {q_in.shape}"
            )
        kv_in = q_in if key_value is None else np.asarray(key_value, np.float64)
        q = self._split(self.q_proj(q_in))
        k = self._split(self.k_proj(kv_in))
        v = self._split(self.v_proj(kv_in))
        if cache is not None:
            if q_in.shape[0] != 1:
                raise ValueError(
                    f"a KV cache holds one sequence; got batch "
                    f"{q_in.shape[0]}"
                )
            if cache.length:
                raise ValueError(
                    "__call__ populates an empty cache (prefill); use "
                    "step() to extend one"
                )
            cache.append(k[0], v[0])
            if key_value is not None:
                cache.freeze()
        scores = attn_scores(q, k)
        scores /= np.sqrt(self.head_dim)
        if mask is not None:
            scores = np.where(np.asarray(mask, dtype=bool), -1e30, scores)
        attn = softmax(scores, out=scores)
        ctx = attn_context(attn, v)  # (batch, heads, seq_q, head_dim)
        b, _, s, _ = ctx.shape
        merged = ctx.transpose(0, 2, 1, 3).reshape(b, s, self.dim)
        return self.o_proj(merged)

    def step(self, query: np.ndarray, *, cache) -> np.ndarray:
        """One decode step: attend a single new token over the cache.

        *query* is ``(1, 1, dim)`` -- the new token's hidden state.
        For an open (self-attention) cache its projected K/V are
        appended first, so the token attends over every position
        including itself; a frozen (cross-attention) cache is read as
        is.  No mask is needed: the cache *is* the causal history.

        Returns ``(1, 1, dim)``, bit-identical to the last position of
        the full recompute (see the module docstring).
        """
        q_in = np.asarray(query, dtype=np.float64)
        if q_in.shape != (1, 1, self.dim):
            raise ValueError(
                f"step query must be (1, 1, {self.dim}), got {q_in.shape}"
            )
        q = self._split(self.q_proj(q_in))[0]  # (heads, 1, head_dim)
        if not cache.frozen:
            k_new = self._split(self.k_proj(q_in))[0]
            v_new = self._split(self.v_proj(q_in))[0]
            cache.append(k_new, v_new)
        k, v = cache.view()
        scores = attn_scores(q, k)
        scores /= np.sqrt(self.head_dim)
        attn = softmax(scores, out=scores)
        ctx = attn_context(attn, v)  # (heads, 1, head_dim)
        merged = ctx.transpose(1, 0, 2).reshape(1, 1, self.dim)
        return self.o_proj(merged)

    def step_many(self, queries: np.ndarray, caches) -> np.ndarray:
        """One decode step for *several* sequences at once.

        *queries* is ``(n, 1, dim)`` -- one new token per sequence --
        and *caches* the matching list of per-sequence KV caches.  The
        four projections run **batched** (n columns through one engine
        call -- the LUT-amortization win continuous batching exists
        for) while the attention itself runs per sequence against its
        own cache.  Under the batch-invariant contract every projected
        column is bit-identical to its lone-GEMV value, so the result
        row for each sequence is bit-identical to a separate
        :meth:`step` call.
        """
        q_in = np.asarray(queries, dtype=np.float64)
        n = len(caches)
        if q_in.shape != (n, 1, self.dim):
            raise ValueError(
                f"step_many queries must be ({n}, 1, {self.dim}), "
                f"got {q_in.shape}"
            )
        q = self._split(self.q_proj(q_in))  # (n, heads, 1, head_dim)
        open_caches = [c for c in caches if not c.frozen]
        if open_caches:
            if len(open_caches) != n:
                raise ValueError(
                    "step_many caches must be uniformly open or frozen"
                )
            k_new = self._split(self.k_proj(q_in))
            v_new = self._split(self.v_proj(q_in))
            for i, cache in enumerate(caches):
                cache.append(k_new[i], v_new[i])
        ctx = np.empty((n, self.heads, 1, self.head_dim))
        for i, cache in enumerate(caches):
            k, v = cache.view()
            scores = attn_scores(q[i], k)
            scores /= np.sqrt(self.head_dim)
            attn = softmax(scores, out=scores)
            attn_context(attn, v, out=ctx[i])
        merged = ctx.transpose(0, 2, 1, 3).reshape(n, 1, self.dim)
        return self.o_proj(merged)
