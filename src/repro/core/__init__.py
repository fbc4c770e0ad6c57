"""BiQGEMM core: the paper's contribution.

The pipeline has an *offline* and an *online* part:

offline (weights are fixed at inference time, paper footnote 3)
    ``{-1,+1}`` binary weight components are compiled into a *key matrix*
    -- every length-``mu`` row slice becomes an integer key
    (:mod:`repro.core.keys`).

online (per input batch)
    1. the input matrix is reshaped into length-``mu`` sub-vectors
       (*replace* phase),
    2. one lookup table of ``2^mu`` entries is built per sub-vector with
       the dynamic-programming recurrence of paper Algorithm 1
       (:mod:`repro.core.lut`, *build* phase),
    3. keys gather partial products from the tables and accumulate into
       the output under LUT-stationary tiling, paper Algorithm 2
       (:mod:`repro.core.kernel` / :mod:`repro.core.tiling`, *query*
       phase).

:class:`repro.core.kernel.BiQGemm` packages the whole flow;
:mod:`repro.core.autotune` selects the LUT-unit ``mu``;
:mod:`repro.core.profiling` provides the build/query/replace timers used
to regenerate the paper's Fig. 8 plus a per-call allocation meter;
:mod:`repro.core.workspace` provides the buffer arenas behind the KV
caches.
"""

from repro.core.keys import KeyMatrix, encode_keys, decode_keys
from repro.core.lut import (
    sign_matrix,
    reshape_input,
    build_tables_dp,
    build_tables_gemm,
    build_table_reference,
    dp_flop_count,
    gemm_build_flop_count,
)
from repro.core.kernel import BiQGemm
from repro.core.group import BiQGemmGroup
from repro.core.serialize import save_engine, load_engine
from repro.core.tiling import TileConfig, iter_tiles, lut_tile_bytes, choose_tiles
from repro.core.autotune import analytic_mu, empirical_mu
from repro.core.profiling import PhaseProfiler, measure_hot_loop
from repro.core.workspace import Workspace

__all__ = [
    "KeyMatrix",
    "encode_keys",
    "decode_keys",
    "sign_matrix",
    "reshape_input",
    "build_tables_dp",
    "build_tables_gemm",
    "build_table_reference",
    "dp_flop_count",
    "gemm_build_flop_count",
    "BiQGemm",
    "BiQGemmGroup",
    "save_engine",
    "load_engine",
    "TileConfig",
    "iter_tiles",
    "lut_tile_bytes",
    "choose_tiles",
    "analytic_mu",
    "empirical_mu",
    "PhaseProfiler",
    "Workspace",
    "measure_hot_loop",
]
