"""The BiQGEMM engine (paper Algorithms 1+2, Sections III-B/III-C).

:class:`BiQGemm` compiles a binary-coding-quantized weight matrix once
(offline) into a key matrix, then multiplies it by activation matrices
with the three-phase pipeline the paper profiles in Fig. 8:

replace
    Reshape/pad the input into length-``mu`` sub-vectors.
build
    Construct one ``2^mu``-entry lookup table per sub-vector per batch
    column (dynamic programming, Algorithm 1 -- or the batched-GEMM
    alternative of Fig. 4(a)).
query
    Stream key-matrix tiles against the resident tables, gathering and
    accumulating partial sums (Algorithm 2, LUT-stationary tiling), then
    apply the per-row scales and fold bit planes (Eq. 2).

Multi-bit weights stack their key planes along the leading axis; only
query work grows with the bit width -- tables are shared across planes,
the property the paper highlights in Section III-B.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Literal

import numpy as np

from repro._util import check_matmul_out, check_positive_int
from repro.core.keys import KeyMatrix, decode_keys, encode_keys
from repro.core.lut import build_tables_dp, build_tables_gemm, reshape_input
from repro.core.profiling import PhaseProfiler
from repro.core.tiling import TileConfig, choose_tiles, iter_tiles
from repro.core.workspace import CallScratch, Workspace

__all__ = ["BiQGemm"]

Builder = Literal["dp", "dp-nosym", "gemm", "auto"]
QueryImpl = Literal["auto", "flat", "loop"]


def _phase(profiler: PhaseProfiler | None, name: str):
    return profiler.phase(name) if profiler is not None else nullcontext()


class BiQGemm:
    """Lookup-table GEMM engine for a binary-coding-quantized matrix.

    Construct via :meth:`from_float`, :meth:`from_bcq` or
    :meth:`from_binary`; then call :meth:`matmul` any number of times.
    The key matrix is immutable after construction, mirroring the
    paper's deployment model in which the compiled keys (not the weights)
    ship with the inference system.

    Parameters
    ----------
    key_matrix:
        Compiled keys from :func:`repro.core.keys.encode_keys`.
    alphas:
        Per-bit, per-row scale factors, shape ``(bits, m)``.  ``None``
        means all-ones (a purely binary matrix).

    The ``batch_invariant`` attribute (default False) pins the two
    batch-tuned execution knobs -- tile selection and the ``"auto"``
    query path -- to batch-independent choices, making every output
    column bit-identical no matter how many other columns share the
    call.  The :mod:`repro.engine` registry enables it for engines
    serving :class:`~repro.nn.linear.QuantLinear` layers, where the
    serving batcher coalesces and splits requests and per-request
    results must not depend on who they were batched with; direct
    kernel users keep the per-call heuristics (the flat gather only
    wins at GEMV-like batches anyway).
    """

    accepts_profiler = True
    """``matmul`` takes ``profiler=`` -- the traced layer path uses this
    to route the shared :func:`repro.obs.kernel_profiler` (phase spans)
    only to engines that understand it."""

    def __init__(self, key_matrix: KeyMatrix, alphas: np.ndarray | None = None):
        if not isinstance(key_matrix, KeyMatrix):
            raise TypeError(
                f"key_matrix must be a KeyMatrix, got {type(key_matrix).__name__}"
            )
        self._keys = key_matrix
        if alphas is None:
            alphas = np.ones((key_matrix.bits, key_matrix.m), dtype=np.float64)
        alphas = np.asarray(alphas, dtype=np.float64)
        if alphas.shape != (key_matrix.bits, key_matrix.m):
            raise ValueError(
                f"alphas must have shape (bits, m) = "
                f"({key_matrix.bits}, {key_matrix.m}), got {alphas.shape}"
            )
        if not np.isfinite(alphas).all():
            raise ValueError("alphas contain NaN or Inf")
        self._alphas = alphas
        self._keys_intp: np.ndarray | None = None
        self._keys_gT: np.ndarray | None = None
        self._alphas_cache: dict[str, np.ndarray] = {}
        self._offsets_cache: dict[int, np.ndarray] = {}
        self._flat_idx_cache: dict[int, np.ndarray] = {}
        self.batch_invariant = False

    backend_name = "biqgemm"
    """Registry key of this engine in :mod:`repro.engine`."""

    _INVARIANT_TILE_BATCH = 32
    """Reference batch for tile selection in batch-invariant mode."""

    _FUSED_QUERY_BUDGET = 1 << 20
    """Max gathered elements (rows * tile_g * batch) for the fused
    single-take loop-query variant; larger blocks fall back to the
    per-group gather to keep the working set cache-sized.  The two
    variants are bit-identical, so this is purely a speed knob."""

    def _flat_keys(self) -> np.ndarray:
        """Key planes widened to intp, cached for the flat query path.

        The flat gather indexes with these keys on every call; caching
        the conversion removes a per-tile, per-bit-plane astype from
        the matmul hot loop.  Built lazily on the first flat-path query
        so engines that only ever use the loop path (or are built
        transiently) never pay the ~8x wider copy.  A benign race under
        threads: the assignment is idempotent.
        """
        if self._keys_intp is None:
            self._keys_intp = self._keys.keys.astype(np.intp)
        return self._keys_intp

    def _alphas_for(self, dtype: np.dtype) -> np.ndarray:
        """Per-bit scales cast to *dtype*, cached (hot-loop allocation
        removal; a benign idempotent race under threads)."""
        key = np.dtype(dtype).str
        cached = self._alphas_cache.get(key)
        if cached is None:
            cached = self._alphas.astype(dtype, copy=False)
            self._alphas_cache[key] = cached
        return cached

    def _flat_offsets(self, tile_g: int) -> np.ndarray:
        """``(1, tile_g)`` table base offsets for the flat gather, cached
        per tile width."""
        cached = self._offsets_cache.get(tile_g)
        if cached is None:
            cached = (
                np.arange(tile_g, dtype=np.intp) * (1 << self.mu)
            )[None, :]
            self._offsets_cache[tile_g] = cached
        return cached

    def _keys_by_group(self) -> np.ndarray:
        """Keys transposed to ``(bits, groups, m)`` intp, contiguous.

        The loop query gathers one group column per step; slicing this
        cache yields the contiguous intp index vector ``np.take`` wants
        -- a strided or narrow-dtype index is silently converted
        (allocated) on every gather.  Built lazily; benign idempotent
        race under threads.
        """
        if self._keys_gT is None:
            self._keys_gT = np.ascontiguousarray(
                self._keys.keys.transpose(0, 2, 1).astype(np.intp)
            )
        return self._keys_gT

    def _flat_idx(self, tile_width: int) -> np.ndarray:
        """Precomputed flat gather indices, ``(bits, m, groups)`` intp.

        ``pre[i, r, g] = keys[i, r, g] + (g % tile_width) * 2^mu`` -- the
        exact index the flat query gathers with, for any tile whose
        group start is a multiple of *tile_width*.  Keys are immutable,
        so this is a per-engine constant: computing it per call costs a
        broadcast-add whose numpy iteration buffer is itself a hot-loop
        allocation, and slicing the cached contiguous matrix costs
        nothing.  One entry per distinct tile width (usually one).
        """
        cached = self._flat_idx_cache.get(tile_width)
        if cached is None:
            groups = self._keys.groups
            offs = (
                np.arange(groups, dtype=np.intp) % tile_width
            ) * (1 << self.mu)
            # Deliberately left writable: np.take silently copies
            # read-only index arrays, which would re-introduce the very
            # per-call allocation this cache removes.
            cached = np.ascontiguousarray(
                self._flat_keys() + offs[None, None, :]
            )
            self._flat_idx_cache[tile_width] = cached
        return cached

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_float(
        cls,
        w: np.ndarray,
        *,
        bits: int,
        mu: int = 8,
        method: str = "greedy",
    ) -> "BiQGemm":
        """Quantize a dense float matrix with BCQ and compile it.

        ``method`` is forwarded to :func:`repro.quant.bcq.bcq_quantize`.
        """
        from repro.quant.bcq import bcq_quantize

        bcq = bcq_quantize(w, bits, method=method)
        return cls.from_bcq(bcq, mu=mu)

    @classmethod
    def from_bcq(cls, bcq, *, mu: int = 8) -> "BiQGemm":
        """Compile an existing :class:`~repro.quant.bcq.BCQTensor`."""
        km = encode_keys(bcq.binary, mu)
        return cls(km, alphas=bcq.alphas)

    @classmethod
    def from_binary(
        cls,
        binary: np.ndarray,
        *,
        alphas: np.ndarray | None = None,
        mu: int = 8,
    ) -> "BiQGemm":
        """Compile raw ``{-1,+1}`` components (2-D or ``(bits, m, n)``).

        With ``alphas=None`` this engine computes the exact integer-valued
        product ``B . x`` -- handy for testing and for the Table IV 1-bit
        setting.
        """
        arr = np.asarray(binary)
        if arr.ndim == 2:
            arr = arr[None, ...]
        km = encode_keys(arr, mu)
        if alphas is not None:
            alphas = np.asarray(alphas, dtype=np.float64)
            if alphas.ndim == 1:
                alphas = alphas[None, :]
        return cls(km, alphas=alphas)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(m, n)`` of the represented weight matrix."""
        return (self._keys.m, self._keys.n)

    @property
    def bits(self) -> int:
        """Number of quantization bit planes."""
        return self._keys.bits

    @property
    def mu(self) -> int:
        """LUT-unit."""
        return self._keys.mu

    @property
    def key_matrix(self) -> KeyMatrix:
        """The compiled key matrix (read-only view of this engine)."""
        return self._keys

    @property
    def alphas(self) -> np.ndarray:
        """Per-bit, per-row scales, shape ``(bits, m)``."""
        return self._alphas

    @property
    def weight_nbytes(self) -> int:
        """Bytes of compiled weight state (keys + scales)."""
        return self._keys.nbytes + self._alphas.nbytes

    def op_counts(self, batch: int) -> dict[str, int]:
        """Analytic operation counts for one multiply at *batch* columns.

        ``build_adds`` follows paper Eq. 6 (DP construction) and
        ``lookups`` follows Eq. 7 scaled by the bit width; tests compare
        them against instrumented runs.
        """
        check_positive_int(batch, "batch")
        from repro.core.lut import dp_flop_count

        g = self._keys.groups
        return {
            "build_adds": dp_flop_count(self.mu, g, batch),
            "lookups": self._keys.m * g * batch * self.bits,
        }

    def invariant_tiles(self, dtype) -> TileConfig:
        """The batch-invariant tile schedule for one activation dtype.

        Tiles depend only on the dtype's itemsize at the reference
        batch, so every batch folds the same groups into each partial
        sum.  The ``compiled`` engine's native kernel
        (:mod:`repro.engine.compiled`) tiles with this too, which keeps
        it bit-identical to :meth:`matmul` in batch-invariant mode.
        """
        m, _ = self.shape
        return choose_tiles(
            m,
            self._keys.groups,
            self.mu,
            self._INVARIANT_TILE_BATCH,
            itemsize=np.dtype(dtype).itemsize,
        )

    # ------------------------------------------------------------------
    # multiplication
    # ------------------------------------------------------------------
    def matmul(
        self,
        x: np.ndarray,
        *,
        builder: Builder = "auto",
        tiles: TileConfig | None = None,
        threads: int = 1,
        query_impl: QueryImpl = "auto",
        profiler: PhaseProfiler | None = None,
        out: np.ndarray | None = None,
        workspace: Workspace | None = None,
    ) -> np.ndarray:
        """Compute ``W_quantized @ x`` via table lookups.

        Parameters
        ----------
        x:
            Input of shape ``(n, b)`` or ``(n,)`` (paper orientation:
            activations are columns).
        builder:
            ``"dp"`` -- Algorithm 1 dynamic programming (default);
            ``"dp-nosym"`` -- DP without the half-table symmetry;
            ``"gemm"`` -- the Fig. 4(a) batched-GEMM construction;
            ``"auto"`` -- pick by a small size heuristic.
        tiles:
            Explicit :class:`~repro.core.tiling.TileConfig`; default picks
            SRAM-feasible tiles via
            :func:`~repro.core.tiling.choose_tiles`.
        threads:
            Worker threads for the query phase (row tiles are
            independent).  1 = serial, matching the paper's Fig. 10
            single-thread setup.
        query_impl:
            ``"flat"`` gathers a ``(rows, tile_g, b)`` block in one fancy
            index; ``"loop"`` iterates groups with 2-D gathers;
            ``"auto"`` chooses by block size.
        profiler:
            Optional :class:`~repro.core.profiling.PhaseProfiler`
            accumulating build/query/replace seconds (Fig. 8).
        out:
            Optional destination of shape ``(m, b)`` (``(m,)`` for
            vector input) in the computation dtype.  Must not alias
            *x*; it is zero-filled and accumulated into.
        workspace:
            Optional :class:`~repro.core.workspace.Workspace` arena
            supplying the padded input, table, gather and accumulator
            scratch (and the output when *out* is not given), so a
            steady-state call loop performs no numpy allocations.
            Results are bit-identical with or without a workspace.

        Returns
        -------
        ``(m, b)`` array in *x*'s float dtype (``(m,)`` for vector
        input); *out* when it was provided.
        """
        check_positive_int(threads, "threads", upper=256)
        # Call-scoped scratch (tables, gathers, accumulators, padded
        # input): released back to the arena when the call completes,
        # so consecutive calls reuse the same cache-hot buffers.
        scratch = CallScratch(workspace)
        with _phase(profiler, "replace"):
            arr = np.asarray(x)
            vector_in = arr.ndim == 1
            if vector_in:
                arr = arr[:, None]
            if arr.ndim != 2:
                raise ValueError(f"x must be 1-D or 2-D, got shape {arr.shape}")
            if arr.shape[0] != self._keys.n:
                raise ValueError(
                    f"x has {arr.shape[0]} rows, engine expects n={self._keys.n}"
                )
            if not np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float64)
            xhat = reshape_input(arr, self.mu, workspace=scratch)
        batch = arr.shape[1]
        groups = self._keys.groups
        m = self._keys.m
        dtype = arr.dtype
        # Batch-invariant mode (layer/serving engines, see the class
        # docstring): every knob the runtime batch normally tunes --
        # tile shapes and the query gather path -- is pinned to
        # batch-independent choices, so the float accumulation order,
        # and hence every output column, is identical whether a request
        # runs alone or coalesced into a micro-batch.
        if tiles is None:
            tiles = (
                self.invariant_tiles(dtype)
                if self.batch_invariant
                else choose_tiles(
                    m, groups, self.mu, batch, itemsize=dtype.itemsize
                )
            )
        if self.batch_invariant and query_impl == "auto":
            query_impl = "loop"
        if self.batch_invariant and builder == "auto":
            # The batched-BLAS table construction reduces in a
            # batch-width-dependent order; Algorithm 1's DP builder adds
            # per column in a fixed order regardless of batch.
            builder = "dp"
        build_fn = self._resolve_builder(builder, batch)

        if out is not None:
            y = check_matmul_out(out, m, batch, dtype, arr, vector_in)
            y[...] = 0
        elif workspace is not None:
            y = workspace.acquire("kernel.y", (m, batch), dtype, zero=True)
        else:
            y = np.zeros((m, batch), dtype=dtype)
        alphas = self._alphas_for(dtype)
        keys = self._keys.keys

        try:
            if threads == 1:
                self._run_tiles(
                    y,
                    xhat,
                    keys,
                    alphas,
                    tiles,
                    build_fn,
                    query_impl,
                    profiler,
                    scratch,
                )
            else:
                from repro.core.multithread import run_tiles_threaded

                run_tiles_threaded(
                    self,
                    y,
                    xhat,
                    keys,
                    alphas,
                    tiles,
                    build_fn,
                    query_impl,
                    profiler,
                    threads,
                    workspace=workspace,
                    scratch=scratch,
                )
        finally:
            scratch.close()
        if out is not None:
            return out
        return y[:, 0] if vector_in else y

    def __call__(self, x: np.ndarray, **kwargs) -> np.ndarray:
        """Alias for :meth:`matmul`."""
        return self.matmul(x, **kwargs)

    def matmul_reference(self, x: np.ndarray) -> np.ndarray:
        """Slow oracle: decode keys and apply paper Eq. 2 directly.

        Used by the tests to pin the fast paths; never use in production
        code paths (it materializes the dense binary components).
        """
        binary = decode_keys(self._keys).astype(np.float64)
        arr = np.asarray(x, dtype=np.float64)
        vector_in = arr.ndim == 1
        if vector_in:
            arr = arr[:, None]
        partial = np.einsum("imn,nb->imb", binary, arr)
        out = np.einsum("im,imb->mb", self._alphas, partial)
        return out[:, 0] if vector_in else out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve_builder(self, builder: Builder, batch: int):
        if builder == "dp":
            return build_tables_dp
        if builder == "dp-nosym":
            return lambda xh, out=None: build_tables_dp(
                xh, use_symmetry=False, out=out
            )
        if builder == "gemm":
            return build_tables_gemm
        if builder == "auto":
            # Paper Section III-B: "depending on the characteristics of a
            # processor, a choice of appropriate scheme to implement
            # lookup tables would be different".  On the numpy substrate
            # the batched-BLAS construction beats the strided-write DP
            # despite doing mu-fold more arithmetic (measured in
            # benchmarks/bench_ablation_lut_build.py), so auto picks it.
            return build_tables_gemm
        raise ValueError(
            f"builder must be 'dp', 'dp-nosym', 'gemm' or 'auto', got {builder!r}"
        )

    def _build_tile(
        self,
        build_fn,
        xhat_slice: np.ndarray,
        scratch: CallScratch,
        batch: int,
        dtype: np.dtype,
    ) -> np.ndarray:
        """Build one group tile's tables into reusable scratch storage.

        The table buffer is the largest per-call intermediate; one
        buffer per distinct tile width (full tile + possible remainder)
        serves every group tile of the call -- the LUT-stationary
        schedule never needs two alive at once.
        """
        g_len = xhat_slice.shape[0]
        buf = scratch.get(
            "lut.tables", (g_len, 1 << self.mu, batch), dtype
        )
        return build_fn(xhat_slice, out=buf)

    def _run_tiles(
        self,
        y: np.ndarray,
        xhat: np.ndarray,
        keys: np.ndarray,
        alphas: np.ndarray,
        tiles: TileConfig,
        build_fn,
        query_impl: QueryImpl,
        profiler: PhaseProfiler | None,
        scratch: CallScratch | None = None,
    ) -> None:
        m, batch = y.shape
        groups = xhat.shape[0]
        if scratch is None:
            scratch = CallScratch()
        seen_g: int | None = None
        q_tile: np.ndarray | None = None
        for r_sl, g_sl in iter_tiles(m, groups, tiles):
            if seen_g != g_sl.start:
                with _phase(profiler, "build"):
                    q_tile = self._build_tile(
                        build_fn, xhat[g_sl], scratch, batch, y.dtype
                    )
                seen_g = g_sl.start
            with _phase(profiler, "query"):
                self._query_tile(
                    y,
                    q_tile,
                    keys,
                    alphas,
                    r_sl,
                    g_sl,
                    query_impl,
                    scratch,
                    tile_width=tiles.tile_g,
                )

    def _query_tile(
        self,
        y: np.ndarray,
        q_tile: np.ndarray,
        keys: np.ndarray,
        alphas: np.ndarray,
        r_sl: slice,
        g_sl: slice,
        query_impl: QueryImpl,
        scratch: CallScratch | None = None,
        *,
        tile_width: int | None = None,
    ) -> None:
        """Accumulate one (row, group) tile into *y* for all bit planes.

        All gather/accumulate intermediates come from *scratch*, so with
        an arena-backed scratch the query phase allocates nothing; the
        in-place formulation performs the identical floating-point
        operations in the identical order as the allocating one, so
        results are bit-for-bit the same.
        """
        tile_g = q_tile.shape[0]
        batch = q_tile.shape[2]
        rows = r_sl.stop - r_sl.start
        if scratch is None:
            scratch = CallScratch()
        impl = query_impl
        if impl == "auto":
            # Measured on numpy: the single fancy-index gather ("flat")
            # only wins for (near-)GEMV shapes where per-group loop
            # overhead dominates; with batch rows to copy per key, the
            # group loop's contiguous row gathers are several times
            # faster.  See benchmarks/bench_ablation_query_impl.py.
            impl = (
                "flat"
                if batch <= 2 and rows * tile_g * batch <= (1 << 22)
                else "loop"
            )
        # mode="clip" below never clips -- keys are < 2^mu by
        # construction (and flat indices < tile_g * 2^mu) -- it just
        # lets np.take write straight into the scratch buffer without
        # the bounds-checking temporary of mode="raise".
        if impl == "flat":
            flat = q_tile.reshape(tile_g * q_tile.shape[1], batch)
            width = tile_width if tile_width is not None else tile_g
            # Tile-aligned starts slice the precomputed contiguous index
            # matrix (the common case: every tile the schedule emits);
            # anything else computes indices into scratch the slow way.
            pre = (
                self._flat_idx(width)
                if g_sl.start % width == 0
                else None
            )
            if pre is None:
                keys_intp = self._flat_keys()
                offsets = self._flat_offsets(tile_g)
                idx_buf = scratch.get("q.idx", (rows, tile_g), np.intp)
            gath = scratch.get("q.gather", (rows, tile_g, batch), y.dtype)
            acc = scratch.get("q.acc", (rows, batch), y.dtype)
            for i in range(self.bits):
                if pre is not None:
                    idx = pre[i, r_sl, g_sl]
                else:
                    np.add(keys_intp[i, r_sl, g_sl], offsets, out=idx_buf)
                    idx = idx_buf
                np.take(flat, idx, axis=0, out=gath, mode="clip")
                np.sum(gath, axis=1, out=acc)
                np.multiply(acc, alphas[i, r_sl, None], out=acc)
                y[r_sl] += acc
        elif impl == "loop":
            acc = scratch.get("q.acc", (rows, batch), y.dtype)
            g0 = g_sl.start
            # GEMV fast path: gather every group's rows in one
            # vectorized take, then fold the groups sequentially.  The
            # additions run in exactly the per-group order of the
            # fallback below, so the two variants are bit-identical and
            # the batch-dependent choice between them cannot break
            # serving batch-invariance; measured on numpy, the single
            # big gather wins only for 1-2 column (decode) calls --
            # wider batches read the gathered block with strides and
            # lose to the fallback's contiguous row blocks.
            width = tile_width if tile_width is not None else tile_g
            fused = (
                batch <= 2
                and rows * tile_g * batch <= self._FUSED_QUERY_BUDGET
                and g0 % width == 0
            )
            if fused:
                flat = q_tile.reshape(tile_g * q_tile.shape[1], batch)
                pre = self._flat_idx(width)
                gath3 = scratch.get(
                    "q.gather", (rows, tile_g, batch), y.dtype
                )
                for i in range(self.bits):
                    np.take(
                        flat, pre[i, r_sl, g_sl], axis=0, out=gath3,
                        mode="clip",
                    )
                    acc[...] = 0
                    for gi in range(tile_g):
                        acc += gath3[:, gi, :]
                    np.multiply(acc, alphas[i, r_sl, None], out=acc)
                    y[r_sl] += acc
            else:
                gath = scratch.get("q.row", (rows, batch), y.dtype)
                keys_gt = self._keys_by_group()
                for i in range(self.bits):
                    acc[...] = 0
                    for gi in range(tile_g):
                        np.take(
                            q_tile[gi],
                            keys_gt[i, g0 + gi, r_sl],
                            axis=0,
                            out=gath,
                            mode="clip",
                        )
                        acc += gath
                    np.multiply(acc, alphas[i, r_sl, None], out=acc)
                    y[r_sl] += acc
        else:
            raise ValueError(
                f"query_impl must be 'auto', 'flat' or 'loop', got {query_impl!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        m, n = self.shape
        return (
            f"BiQGemm(m={m}, n={n}, bits={self.bits}, mu={self.mu}, "
            f"keys={self._keys.nbytes}B)"
        )
