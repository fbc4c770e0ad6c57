"""One function per paper table/figure, plus the DESIGN.md ablations.

Each experiment returns a list of :class:`~repro.bench.report.Table`.
``quick=True`` shrinks sweeps for CI-speed runs; the full settings match
the paper's parameter grids (see DESIGN.md Section 4 for the index).

Two kinds of numbers appear side by side:

- **model** -- predictions of the roofline cost model standing in for
  the paper's hardware (Table IV, Fig. 9/10 shapes);
- **measured** -- wall-clock seconds of the numpy kernels on the host
  running this reproduction (honest, but a different instrument than
  the paper's C++/CUDA testbed; EXPERIMENTS.md discusses the gap).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bench.paper_data import TABLE1_PAPER, TABLE2_PAPER_TOTALS, TABLE4_PAPER
from repro.bench.report import Table
from repro.bench.runner import time_callable
from repro.core.autotune import analytic_cost_ratio, analytic_mu
from repro.core.kernel import BiQGemm
from repro.core.lut import (
    build_tables_dp,
    build_tables_gemm,
    dp_flop_count,
    gemm_build_flop_count,
    reshape_input,
)
from repro.core.profiling import PhaseProfiler
from repro.core.tiling import TileConfig, lut_tile_bytes
from repro.gemm.packed import gemm_with_unpack, gemm_without_unpack
from repro.gemm.sgemm import sgemm
from repro.hw.costmodel import (
    estimate_biqgemm,
    estimate_gemm,
    estimate_packed_gemm,
    estimate_xnor,
)
from repro.hw.machine import MACHINES
from repro.hw.memory import table2_rows
from repro.quant.packing import pack_bits

__all__ = ["EXPERIMENTS", "run_experiment"]


def _random_binary(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=shape)


# ----------------------------------------------------------------------
# Table I -- quantization quality
# ----------------------------------------------------------------------
def table1(quick: bool = False) -> list[Table]:
    """Quantization quality: paper BLEU table + this repo's two proxies."""
    from repro.train.experiment import accuracy_vs_bits, weight_sqnr_sweep

    paper = Table(
        "Table I (paper): Transformer En-De BLEU after quantization",
        ["ref", "scheme", "W bits", "A bits", "BLEU", "delta"],
        notes=["transcribed from the paper for comparison"],
    )
    for row in TABLE1_PAPER:
        paper.add_row(*row)

    sqnr = Table(
        "Table I proxy (a): weight reconstruction SQNR on Gaussian "
        "Transformer-shaped matrices",
        ["shape", "scheme", "bits", "SQNR (dB)"],
        notes=[
            "substitute for BLEU: higher SQNR ~ smaller accuracy drop",
            "expected shape: BCQ gains ~3-6 dB/bit; alternating >= greedy",
        ],
    )
    shapes = ((512, 512),) if quick else ((512, 512), (2048, 512))
    bits = (1, 2, 3, 4) if quick else (1, 2, 3, 4, 6, 8)
    for row in weight_sqnr_sweep(shapes=shapes, bits_list=bits):
        sqnr.add_row(row["shape"], row["scheme"], row["bits"], row["sqnr_db"])

    acc = Table(
        "Table I proxy (b): student-classifier accuracy after "
        "post-training weight quantization",
        ["scheme", "bits", "accuracy", "drop"],
        notes=[
            "substitute for BLEU on a numpy-trainable task (DESIGN.md S2)",
            "expected shape: >=3-bit BCQ near-lossless, 1-bit collapses",
        ],
    )
    baseline, rows = accuracy_vs_bits(
        bits_list=bits, epochs=10 if quick else 25
    )
    acc.notes.append(f"float32 baseline accuracy = {baseline:.3f}")
    for row in rows:
        acc.add_row(row.scheme, row.bits, row.accuracy, row.drop)
    return [paper, sqnr, acc]


# ----------------------------------------------------------------------
# Table II -- memory usage
# ----------------------------------------------------------------------
def table2(quick: bool = False) -> list[Table]:
    """Memory usage for a 512x512 layer at batch 18 (exact reproduction)."""
    del quick
    table = Table(
        "Table II: memory usage (512x512 weights, batch 18)",
        ["W bits", "A bits", "O bits", "W MB", "I MB", "O MB", "total MB",
         "paper MB"],
        notes=["MB = bytes / 1e6, following the paper's convention"],
    )
    for row in table2_rows():
        paper_total = TABLE2_PAPER_TOTALS[(row["w_bits"], row["a_bits"])]
        table.add_row(
            row["w_bits"],
            row["a_bits"],
            row["o_bits"],
            row["weights_mb"],
            row["inputs_mb"],
            row["outputs_mb"],
            row["total_mb"],
            paper_total,
        )
    return [table]


# ----------------------------------------------------------------------
# Table III -- machine configurations
# ----------------------------------------------------------------------
def table3(quick: bool = False) -> list[Table]:
    """The simulated machines (paper Table III parameters)."""
    del quick
    table = Table(
        "Table III: simulated machine configurations",
        ["machine", "units", "SIMD", "L1D/unit", "DRAM GB/s",
         "GFLOPS/unit", "GFLOPS total"],
        notes=["V100 FLOPS interpreted per-SM x 80 SMs (see machine.py)"],
    )
    for key, mc in MACHINES.items():
        table.add_row(
            f"{key} ({mc.name})",
            mc.units,
            mc.simd_lanes,
            f"{mc.l1d_bytes // 1024}KB",
            mc.bandwidth / 1e9,
            mc.flops_per_unit / 1e9,
            mc.flops_total / 1e9,
        )
    return [table]


# ----------------------------------------------------------------------
# Table IV -- GPU runtime comparison (cost model vs paper)
# ----------------------------------------------------------------------
def table4(quick: bool = False) -> list[Table]:
    """V100 runtimes: BiQGEMM vs kGpu vs cuBLAS vs XNOR (1-bit weights)."""
    v100 = MACHINES["v100"]
    table = Table(
        "Table IV: modelled V100 runtime (usec) vs paper, 1-bit weights",
        ["n=m", "batch",
         "BiQ model", "BiQ paper",
         "kGpu model", "kGpu paper",
         "cublas model", "cublas paper",
         "xnor model", "xnor paper"],
        notes=[
            "model = roofline cost model on the Table III V100 config",
            "shape to check: BiQGEMM fastest at small batch; cuBLAS "
            "overtakes at n=4096 b>=128; xnor flat and best at large "
            "batch for small n",
        ],
    )
    sizes = (512, 4096) if quick else (512, 1024, 2048, 4096)
    batches = (1, 256) if quick else (1, 32, 128, 256)
    for n in sizes:
        for b in batches:
            biq = estimate_biqgemm(v100, n, n, b, bits=1, mu=8).seconds * 1e6
            kgpu = estimate_gemm(v100, n, n, b, engine="naive").seconds * 1e6
            cublas = estimate_gemm(v100, n, n, b, engine="blas").seconds * 1e6
            xnor = estimate_xnor(v100, n, n, b).seconds * 1e6
            p = TABLE4_PAPER[(n, b)]
            table.add_row(
                n, b, biq, p[0], kgpu, p[1], cublas, p[2], xnor, p[3]
            )
    return [table]


# ----------------------------------------------------------------------
# Fig. 8 -- runtime profiling of BiQGEMM phases
# ----------------------------------------------------------------------
def fig8(quick: bool = False) -> list[Table]:
    """Measured build/query/replace proportions vs output size."""
    table = Table(
        "Fig. 8: BiQGEMM phase proportions (measured, batch 32, mu=8)",
        ["n", "m", "build %", "query %", "replace %", "total"],
        notes=[
            "shape to check: query share grows with m and dominates",
            "measured on this host's numpy kernel (single thread)",
        ],
    )
    rng = np.random.default_rng(8)
    n_list = (1024,) if quick else (1024, 2048)
    m_list = (512, 2048) if quick else (512, 1024, 2048, 4096, 8192)
    batch = 32
    for n in n_list:
        x = rng.standard_normal((n, batch)).astype(np.float32)
        for m in m_list:
            engine = BiQGemm.from_binary(_random_binary(rng, (m, n)), mu=8)
            engine.matmul(x, builder="dp")  # warm-up outside the profile
            prof = PhaseProfiler()
            repeats = 2 if quick else 3
            for _ in range(repeats):
                # builder='dp' mirrors the paper's CPU pipeline
                # (Algorithm 1 construction), as Fig. 8 profiles it.
                engine.matmul(x, builder="dp", profiler=prof)
            frac = prof.proportions()
            table.add_row(
                n,
                m,
                100 * frac["build"],
                100 * frac["query"],
                100 * frac["replace"],
                f"{prof.total / repeats * 1e3:.2f}ms",
            )
    return [table]


# ----------------------------------------------------------------------
# Fig. 9 -- unpacking overhead
# ----------------------------------------------------------------------
def fig9(quick: bool = False) -> list[Table]:
    """Packed-GEMM scenarios: measured wall clock + modelled CPU/GPU."""
    measured = Table(
        "Fig. 9 (measured): packed-weight GEMM scenarios, 1-bit, this host",
        ["m=n", "batch", "w/o unpack", "sGEMM", "w/ unpack",
         "unpack overhead x"],
        notes=[
            "shape to check: w/o unpack < sGEMM < w/ unpack",
            "'w/o unpack' computes WRONG values by design (bandwidth probe)",
        ],
    )
    rng = np.random.default_rng(9)
    sizes = (512,) if quick else (1024, 2048)
    batches = (32,) if quick else (32, 64, 128)
    for size in sizes:
        binary = _random_binary(rng, (size, size))
        dense = binary.astype(np.float32)
        packed = pack_bits(binary)
        for b in batches:
            x = rng.standard_normal((size, b)).astype(np.float32)
            t_no = time_callable(lambda: gemm_without_unpack(packed, x))
            t_sg = time_callable(lambda: sgemm(dense, x))
            t_un = time_callable(lambda: gemm_with_unpack(packed, x))
            measured.add_row(
                size,
                b,
                f"{t_no * 1e3:.3f}ms",
                f"{t_sg * 1e3:.3f}ms",
                f"{t_un * 1e3:.3f}ms",
                t_un / max(t_sg, 1e-12),
            )

    model = Table(
        "Fig. 9 (model): packed-weight GEMM scenarios on the paper machines",
        ["machine", "m=n", "batch", "w/o unpack", "sGEMM", "w/ unpack"],
        notes=["milliseconds on CPU rows, microseconds on V100 rows"],
    )
    for mkey in ("pc", "v100"):
        mc = MACHINES[mkey]
        unit, scale = ("ms", 1e3) if not mc.is_gpu else ("us", 1e6)
        for size in (1024, 2048):
            for b in (32, 64, 128):
                t_no = estimate_packed_gemm(
                    mc, size, size, b, scenario="without_unpack"
                ).seconds
                t_sg = estimate_packed_gemm(
                    mc, size, size, b, scenario="container"
                ).seconds
                t_un = estimate_packed_gemm(
                    mc, size, size, b, scenario="with_unpack"
                ).seconds
                model.add_row(
                    mkey,
                    size,
                    b,
                    f"{t_no * scale:.2f}{unit}",
                    f"{t_sg * scale:.2f}{unit}",
                    f"{t_un * scale:.2f}{unit}",
                )
    return [measured, model]


# ----------------------------------------------------------------------
# Fig. 10 -- speedup over Eigen
# ----------------------------------------------------------------------
def fig10(quick: bool = False) -> list[Table]:
    """Speedup of BiQGEMM over float GEMM: cost model + host wall clock."""
    model = Table(
        "Fig. 10 (model): BiQGEMM speedup over BLAS GEMM, 1 thread, n=1024",
        ["machine", "m", "batch", "1-bit", "2-bit", "3-bit"],
        notes=[
            "speedup = gemm_time / biqgemm_time from the cost model",
            "shape to check: speedup grows with m, shrinks with batch "
            "and bits; PC 3-bit crosses below 1.0 near batch 128; "
            "mobile stays above 1.0 longer",
        ],
    )
    n = 1024
    batches = (1, 8, 16, 32, 128, 256)
    for mkey in ("pc", "mobile"):
        mc = MACHINES[mkey]
        for m in (1024, 2048, 4096):
            for b in batches:
                gemm_t = estimate_gemm(mc, m, n, b, engine="blas").seconds
                speedups = []
                for bits in (1, 2, 3):
                    biq_t = estimate_biqgemm(mc, m, n, b, bits=bits).seconds
                    speedups.append(gemm_t / biq_t)
                model.add_row(mkey, m, b, *speedups)

    measured = Table(
        "Fig. 10 (measured): numpy BiQGEMM vs numpy BLAS on this host",
        ["m", "batch", "bits", "BLAS", "BiQGEMM", "speedup"],
        notes=[
            "numpy gathers cannot beat a tuned BLAS the way the paper's "
            "C++ kernel beats Eigen; recorded for honesty (see "
            "EXPERIMENTS.md) -- the cost model carries the shape claim",
        ],
    )
    rng = np.random.default_rng(10)
    m_list = (1024,) if quick else (1024, 2048)
    b_list = (1,) if quick else (1, 32)
    bits_list = (1,) if quick else (1, 3)
    for m in m_list:
        for bits in bits_list:
            binary = _random_binary(rng, (bits, m, n))
            engine = BiQGemm.from_binary(binary, mu=8)
            dense = binary[0].astype(np.float32)
            for b in b_list:
                x = rng.standard_normal((n, b)).astype(np.float32)
                t_blas = time_callable(lambda: sgemm(dense, x)) * max(bits, 1)
                t_biq = time_callable(lambda: engine.matmul(x))
                measured.add_row(
                    m,
                    b,
                    bits,
                    f"{t_blas * 1e3:.3f}ms",
                    f"{t_biq * 1e3:.3f}ms",
                    t_blas / max(t_biq, 1e-12),
                )
    return [model, measured]


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def fig10_chart(machine_key: str = "pc", m: int = 1024) -> str:
    """ASCII rendering of Fig. 10's speedup-vs-batch curves.

    One chart per machine/output-size, three series (1/2/3-bit), drawn
    from the cost model; the CLI prints this under ``fig10 --plot``.
    """
    from repro.bench.plot import render_series

    mc = MACHINES[machine_key]
    batches = (1, 8, 16, 32, 64, 128, 256)
    series: dict[str, list[float]] = {}
    for bits in (1, 2, 3):
        vals = []
        for b in batches:
            gemm_t = estimate_gemm(mc, m, 1024, b).seconds
            biq_t = estimate_biqgemm(mc, m, 1024, b, bits=bits).seconds
            vals.append(gemm_t / biq_t)
        series[f"{bits}-bit"] = vals
    return render_series(
        f"Fig. 10 ({machine_key}): BiQGEMM speedup over GEMM, m={m}, n=1024",
        list(batches),
        series,
        y_label="speedup (cost model); 1.0 = parity",
    )


def mu_ablation(quick: bool = False) -> list[Table]:
    """LUT-unit sweep: analytic Eq. 9 ratio and measured kernel time."""
    from repro.core.autotune import empirical_mu

    analytic = Table(
        "mu ablation (analytic): Eq. 9 cost ratio (2^mu + m) / (m * mu)",
        ["m", "best mu"] + [f"mu={mu}" for mu in (2, 4, 6, 8, 10, 12)],
        notes=["paper: mu=8 is close to optimal across its sizes"],
    )
    for m in (512, 1024, 2048, 4096, 8192):
        ratios = [analytic_cost_ratio(mu, m) for mu in (2, 4, 6, 8, 10, 12)]
        analytic.add_row(m, analytic_mu(m), *ratios)

    measured = Table(
        "mu ablation (measured): kernel seconds per mu on this host",
        ["m", "n", "batch", "best mu", "timings"],
        notes=["empirical_mu on synthetic 1-bit weights"],
    )
    cases = [(1024, 1024, 8)] if quick else [(1024, 1024, 8), (2048, 1024, 32)]
    for m, n, b in cases:
        best, timings = empirical_mu(
            m, n, b, candidates=(4, 6, 8, 10), repeats=2 if quick else 3
        )
        pretty = ", ".join(f"mu{mu}={t * 1e3:.2f}ms" for mu, t in timings.items())
        measured.add_row(m, n, b, best, pretty)
    return [analytic, measured]


def lut_build_ablation(quick: bool = False) -> list[Table]:
    """DP vs GEMM table construction (paper Eq. 6 vs T_c,mm)."""
    table = Table(
        "LUT build ablation: dynamic programming vs GEMM construction",
        ["mu", "groups", "batch", "DP adds", "GEMM madds", "ratio",
         "DP ms", "DP-nosym ms", "GEMM ms"],
        notes=[
            "analytic ratio tends to mu (paper: DP is mu-fold cheaper)",
            "wall clock on this host's vectorized builders",
        ],
    )
    rng = np.random.default_rng(11)
    cases = [(8, 128, 32)] if quick else [(4, 128, 32), (8, 128, 32), (8, 256, 128)]
    for mu, groups, batch in cases:
        x = rng.standard_normal((groups * mu, batch)).astype(np.float32)
        xhat = reshape_input(x, mu)
        dp = dp_flop_count(mu, groups, batch)
        gm = gemm_build_flop_count(mu, groups, batch)
        t_dp = time_callable(lambda: build_tables_dp(xhat))
        t_ns = time_callable(lambda: build_tables_dp(xhat, use_symmetry=False))
        t_gm = time_callable(lambda: build_tables_gemm(xhat))
        table.add_row(
            mu, groups, batch, dp, gm, gm / dp,
            t_dp * 1e3, t_ns * 1e3, t_gm * 1e3,
        )
    return [table]


def tiling_ablation(quick: bool = False) -> list[Table]:
    """Tile-shape sweep: resident LUT bytes vs kernel time."""
    table = Table(
        "Tiling ablation: LUT-stationary tile shapes (m=2048, n=1024, b=32)",
        ["tile_m", "tile_g", "LUT bytes", "seconds"],
        notes=["all configurations produce identical outputs (tested)"],
    )
    rng = np.random.default_rng(12)
    m, n, b = (1024, 512, 16) if quick else (2048, 1024, 32)
    engine = BiQGemm.from_binary(_random_binary(rng, (m, n)), mu=8)
    x = rng.standard_normal((n, b)).astype(np.float32)
    groups = engine.key_matrix.groups
    configs = [
        TileConfig(tile_m=m, tile_g=groups),
        TileConfig(tile_m=m, tile_g=max(1, groups // 4)),
        TileConfig(tile_m=max(1, m // 4), tile_g=groups),
        TileConfig(tile_m=max(1, m // 8), tile_g=max(1, groups // 8)),
    ]
    for cfg in configs:
        t = time_callable(lambda: engine.matmul(x, tiles=cfg))
        table.add_row(
            cfg.tile_m,
            cfg.tile_g,
            lut_tile_bytes(cfg.tile_g, 8, b),
            t,
        )
    return [table]


def threads_ablation(quick: bool = False) -> list[Table]:
    """Thread scaling of the query phase (paper Section IV-D claim)."""
    table = Table(
        "Thread scaling: BiQGEMM matmul vs worker threads "
        "(measured + cost model)",
        ["m", "n", "batch", "threads", "seconds", "measured speedup",
         "model speedup (pc)"],
        notes=[
            "paper Section IV-D: multithreading improves both engines "
            "~linearly; the cost model reflects that via engaged units",
            "on the numpy substrate, fancy-index gathers hold the GIL, "
            "so measured scaling is limited -- an honest substrate gap "
            "(EXPERIMENTS.md)",
        ],
    )
    rng = np.random.default_rng(13)
    m, n, b = (2048, 1024, 32) if quick else (4096, 2048, 64)
    engine = BiQGemm.from_binary(_random_binary(rng, (m, n)), mu=8)
    x = rng.standard_normal((n, b)).astype(np.float32)
    tiles = TileConfig(tile_m=max(1, m // 16), tile_g=engine.key_matrix.groups)
    pc = MACHINES["pc"]
    base = None
    model_base = estimate_biqgemm(pc, m, n, b, threads=1).seconds
    for threads in (1, 2, 4):
        t = time_callable(
            lambda: engine.matmul(x, threads=threads, tiles=tiles),
            repeats=3,
        )
        if base is None:
            base = t
        model_t = estimate_biqgemm(pc, m, n, b, threads=threads).seconds
        table.add_row(m, n, b, threads, t, base / t, model_base / model_t)
    return [table]


def models_experiment(quick: bool = False) -> list[Table]:
    """Section II-C motivation: end-to-end layer costs per NLP model.

    For every model shape the paper cites (Transformer base/big,
    BERT-large, ALBERT-xxlarge, LAS), sums the cost-model time of all
    its weight GEMMs on the PC and mobile configs at batch 18 (the
    paper's average sub-word count) and reports weight footprints.
    """
    from repro.nn.model_zoo import MODEL_SHAPES, model_gemm_shapes

    table = Table(
        "Section II-C models: full-model GEMM time and weights "
        "(cost model, batch 18, 1 thread, 3-bit BCQ)",
        ["model", "GEMMs", "fp32 MB", "keys MB",
         "pc GEMM ms", "pc BiQ ms", "pc speedup",
         "mobile GEMM ms", "mobile BiQ ms", "mobile speedup"],
        notes=[
            "per-model totals over every attention/FFN/LSTM projection",
            "keys MB = 3-bit BiQGEMM key planes at mu=8",
        ],
    )
    bits, batch = 3, 18
    keys = ("transformer-base",) if quick else tuple(MODEL_SHAPES)
    for key in keys:
        shapes = model_gemm_shapes(key)
        fp32_mb = sum(m * n * 4 for _, m, n in shapes) / 1e6
        keys_mb = sum(m * -(-n // 8) * bits for _, m, n in shapes) / 1e6
        row = [key, len(shapes), fp32_mb, keys_mb]
        for mkey in ("pc", "mobile"):
            mc = MACHINES[mkey]
            t_gemm = sum(
                estimate_gemm(mc, m, n, batch).seconds for _, m, n in shapes
            )
            t_biq = sum(
                estimate_biqgemm(mc, m, n, batch, bits=bits).seconds
                for _, m, n in shapes
            )
            row.extend([t_gemm * 1e3, t_biq * 1e3, t_gemm / t_biq])
        table.add_row(*row)
    return [table]


def shared_ablation(quick: bool = False) -> list[Table]:
    """Shared-input LUT reuse across Q/K/V projections (extension).

    A :class:`~repro.core.group.BiQGemmGroup` builds tables once per
    input and streams all member key matrices against them; this
    quantifies the saving versus three independent multiplies.
    """
    from repro.core.group import BiQGemmGroup

    table = Table(
        "Shared-LUT ablation: fused QKV vs separate BiQGEMM multiplies",
        ["n=m", "batch", "separate s", "fused s", "speedup",
         "build adds saved"],
        notes=[
            "extension enabled by the paper's structure: Q/K/V share "
            "activations, hence lookup tables",
        ],
    )
    rng = np.random.default_rng(14)
    cases = [(512, 8)] if quick else [(512, 8), (1024, 8), (1024, 32)]
    for n, b in cases:
        engines = [
            BiQGemm.from_binary(_random_binary(rng, (n, n)), mu=8)
            for _ in range(3)
        ]
        group = BiQGemmGroup(engines)
        x = rng.standard_normal((n, b)).astype(np.float32)
        t_sep = time_callable(
            lambda: [e.matmul(x, builder="dp") for e in engines], repeats=3
        )
        t_fused = time_callable(
            lambda: group.matmul_shared(x, builder="dp"), repeats=3
        )
        savings = group.build_savings(b)
        table.add_row(
            n,
            b,
            t_sep,
            t_fused,
            t_sep / t_fused,
            savings["separate_build_adds"] - savings["shared_build_adds"],
        )
    return [table]


def cache_ablation(quick: bool = False) -> list[Table]:
    """Cache-locality ablation: simulated L1 hit rates of the query loop.

    Derives the paper's Section III-C locality argument from first
    principles: the gather address stream is replayed through an LRU
    set-associative model of the i7-7700 L1, with and without
    LUT-stationary tiling, across batch sizes.  The falling hit rate is
    the mechanism the cost model's ``spill_factor`` summarizes.
    """
    from repro.hw.cachesim import simulate_query_hit_rate

    table = Table(
        "Cache ablation: simulated L1 hit rate of the query phase "
        "(i7-7700 L1: 32KB/64B/8-way; m=256, n=1024, mu=8)",
        ["batch", "table KB", "untiled hit %", "L1-tile_g",
         "tiled hit %"],
        notes=[
            "shape to check: hit rate falls as one table outgrows L1; "
            "LUT-stationary tiling recovers locality but cannot undo "
            "the batch effect (paper Fig. 10 mechanism)",
        ],
    )
    batches = (1, 32) if quick else (1, 8, 32, 128)
    rows = 32 if quick else 64
    for b in batches:
        full = simulate_query_hit_rate(256, 1024, b, mu=8, max_rows=rows)
        table_bytes = int(full["table_bytes"])
        tile_g = max(1, (32 * 1024) // table_bytes)
        tiled = simulate_query_hit_rate(
            256, 1024, b, mu=8, tile_g=tile_g, max_rows=rows
        )
        table.add_row(
            b,
            table_bytes / 1024,
            100 * full["hit_rate"],
            tile_g,
            100 * tiled["hit_rate"],
        )
    return [table]


def dispatch_experiment(quick: bool = False) -> list[Table]:
    """Planner decisions and the BiQGEMM->dense crossover (Fig. 10).

    For each machine/size/bit-width, asks the cost-model planner which
    lossless engine serves each batch and records the batch at which
    the plan leaves BiQGEMM for the dense BLAS path -- the quantity the
    paper's Fig. 10 plots as the speedup curve crossing 1.0.
    """
    from repro.engine import QuantSpec, crossover_batch, plan_backend

    plans = Table(
        "Dispatch: planner choice per batch (lossless engines, mu=8)",
        ["machine", "n=m", "bits", "b=1", "b=8", "b=32", "b=128", "b=512",
         "crossover b"],
        notes=[
            "shape to check: BiQGEMM at small batch, dense at large; "
            "crossover falls with bits and rises on bandwidth-starved "
            "machines (paper Fig. 10 / Table IV)",
            "crossover b = smallest power-of-two batch not planned onto "
            "BiQGEMM ('-' = BiQGEMM to 1024)",
        ],
    )
    machines = ("pc",) if quick else ("pc", "mobile", "v100")
    sizes = (1024,) if quick else (512, 1024, 4096)
    bits_list = (1, 3) if quick else (1, 2, 3)
    batches = (1, 8, 32, 128, 512)
    for mkey in machines:
        for size in sizes:
            for bits in bits_list:
                spec = QuantSpec(bits=bits, backend="auto", machine=mkey)
                row = [mkey, size, bits]
                row.extend(
                    plan_backend(size, size, spec=spec, batch_hint=b)
                    for b in batches
                )
                cross = crossover_batch(size, size, spec=spec, machine=mkey)
                row.append("-" if cross is None else cross)
                plans.add_row(*row)
    return [plans]


def qat_experiment(quick: bool = False) -> list[Table]:
    """QAT vs PTQ (paper reference [48], DeepTwist weight distortion).

    The Table I BCQ rows come from quantization-aware retraining; this
    reruns the accuracy proxy with the distortion loop and shows how
    much of the post-training drop retraining recovers at 2-3 bits.
    """
    from repro.train.data import make_teacher_task
    from repro.train.qat import qat_vs_ptq

    table = Table(
        "QAT vs PTQ: accuracy proxy with DeepTwist-style weight distortion",
        ["bits", "float acc", "PTQ acc", "QAT acc", "drop recovered"],
        notes=[
            "QAT = retraining with occasional weight distortion "
            "(paper ref [48], used for its Table I BCQ rows)",
            "expected shape: QAT narrows the PTQ gap at 2-3 bits; "
            "1-bit stays broken even with retraining (paper: 0.4 BLEU)",
        ],
    )
    task = make_teacher_task()
    rows = qat_vs_ptq(
        task,
        bits_list=(2,) if quick else (1, 2, 3),
        epochs=8 if quick else 20,
    )
    for r in rows:
        ptq_drop = r["float_accuracy"] - r["ptq_accuracy"]
        recovered = (
            (r["qat_accuracy"] - r["ptq_accuracy"]) / ptq_drop
            if ptq_drop > 0
            else 0.0
        )
        table.add_row(
            int(r["bits"]),
            r["float_accuracy"],
            r["ptq_accuracy"],
            r["qat_accuracy"],
            recovered,
        )
    return [table]


def model_compile_experiment(quick: bool = False) -> list[Table]:
    """End-to-end model API: quantize -> compile -> save -> load.

    Exercises the whole :mod:`repro.api` pipeline on scaled-down
    Section II-C encoders: one mixed-bit-width config (3-bit attention,
    2-bit feed-forward via a glob override), a one-pass compile at the
    decode and scoring batch hints, the per-model cost report, the plan
    cache's shape-sharing across a deep stack, and a v3 whole-model
    artifact round trip with byte-identical outputs.
    """
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.api import QuantConfig, load, quantize, save
    from repro.engine import clear_plan_cache, plan_cache_stats
    from repro.nn.model_zoo import build_encoder

    table = Table(
        "Model compile: one-pass planning + v3 artifact round trip "
        "(3-bit, ffn.* overridden to 2-bit, mu=8)",
        ["model", "scale", "b hint", "gemms", "biqgemm", "dense",
         "pred s/pass", "cache hit %", "artifact KB", "roundtrip"],
        notes=[
            "shape to check: attention projections on BiQGEMM at decode "
            "batch, feed-forward shapes migrate to dense as the batch "
            "hint grows (paper Fig. 10 applied per layer)",
            "cache hit % counts plan-cache hits during compile: deep "
            "stacks price each distinct shape once",
            "roundtrip = save -> load in-process, outputs byte-identical",
        ],
    )
    settings = (
        [("transformer-base", 16, 2)]
        if quick
        else [("transformer-base", 16, 3), ("transformer-big", 16, 2)]
    )
    config = QuantConfig(bits=3, mu=8, overrides={"ffn.*": {"bits": 2}})
    rng = np.random.default_rng(0)
    for key, scale, layers in settings:
        for batch_hint in (1, 128):
            clear_plan_cache()
            encoder = build_encoder(key, scale=scale, layers=layers, seed=0)
            compiled = quantize(encoder, config).compile(
                batch_hint=batch_hint
            )
            report = compiled.cost_report()
            counts = report.by_backend()
            stats = plan_cache_stats()
            planned = stats["hits"] + stats["misses"]
            hit_pct = 100.0 * stats["hits"] / planned if planned else 0.0
            x = rng.standard_normal((1, 3, compiled.model.config.dim))
            expected = compiled(x)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "model.npz"
                save(compiled, path)
                nbytes = path.stat().st_size
                roundtrip = np.array_equal(load(path)(x), expected)
            table.add_row(
                key,
                scale,
                batch_hint,
                len(report.rows),
                counts.get("biqgemm", 0),
                counts.get("dense", 0),
                report.total_seconds,
                hit_pct,
                nbytes / 1024,
                "ok" if roundtrip else "MISMATCH",
            )
    return [table]


def serve_throughput_rows(
    quick: bool = False,
    *,
    clients: int | None = None,
    requests_per_client: int | None = None,
    workers: int = 2,
) -> list[dict]:
    """Measured serving throughput, dynamic batcher on vs off.

    Builds a zoo transformer encoder, compiles it at the decode batch
    hint (BiQGEMM everywhere), and serves the same concurrent client
    load twice through :class:`repro.serve.Server`: once with
    ``max_batch=1`` (every request executes alone) and once with the
    dynamic batcher coalescing toward the plan-cache buckets.  Each
    client thread fires its requests back-to-back; outputs are checked
    bit-identical against unbatched execution.  Returns one dict per
    mode with req/s, latency quantiles, mean batch and the speedup --
    the bench file asserts the acceptance bar on these numbers.
    """
    import threading
    import time

    from repro.api import QuantConfig, quantize
    from repro.nn.model_zoo import build_encoder
    from repro.serve import ServeConfig, Server

    clients = clients if clients is not None else (16 if quick else 64)
    requests_per_client = (
        requests_per_client
        if requests_per_client is not None
        else (4 if quick else 8)
    )
    encoder = build_encoder("transformer-base", scale=16, layers=2, seed=0)
    compiled = quantize(encoder, QuantConfig(bits=3, mu=8)).compile(
        batch_hint=1
    )
    compiled.warmup()
    rng = np.random.default_rng(0)
    dim = compiled.model.config.dim
    inputs = [rng.standard_normal((4, dim)) for _ in range(clients)]
    expected = [compiled(x[None])[0] for x in inputs]

    rows: list[dict] = []
    for mode, max_batch in (("off", 1), ("on", 64)):
        server = Server(
            config=ServeConfig(
                workers=workers,
                max_batch=max_batch,
                max_latency_ms=20.0,
                max_queue=4 * clients,
            )
        )
        server.add_model("zoo", compiled)
        mismatches: list[int] = []

        def run_client(i: int) -> None:
            for _ in range(requests_per_client):
                out = server.predict("zoo", inputs[i])
                if not np.array_equal(out, expected[i]):
                    mismatches.append(i)

        with server:
            threads = [
                threading.Thread(target=run_client, args=(i,))
                for i in range(clients)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            snap = server.metrics()["models"]["zoo"]
        total = clients * requests_per_client
        rows.append(
            {
                "mode": mode,
                "max_batch": max_batch,
                "clients": clients,
                "requests": total,
                "seconds": elapsed,
                "req_per_s": total / elapsed,
                "p50_ms": snap["latency_ms"]["p50"],
                "p95_ms": snap["latency_ms"]["p95"],
                "mean_batch": snap["lut_amortization_ratio"],
                "mismatches": len(mismatches),
            }
        )
    baseline = rows[0]["req_per_s"]
    for row in rows:
        row["speedup"] = row["req_per_s"] / baseline
    return rows


def steady_state_rows(
    quick: bool = False,
    *,
    batches: tuple[int, ...] | None = None,
    repeats: int | None = None,
) -> list[dict]:
    """Steady-state serving cost: model p50 + allocation, engine hot loop.

    Builds a BCQ MLP (the Table I substrate -- token count equals the
    request batch, the paper's GEMV decode regime), compiles it at the
    decode hint, and for each small batch measures the CompiledModel
    forward: p50 latency and the per-call transient allocation
    footprint (tracemalloc peak bytes).  A final row reports the
    engine-level criterion: tracked allocation events in the warmed
    BiQGemm flat-query hot loop served from a
    :class:`~repro.core.workspace.Workspace`, which must be zero.
    """
    import time

    from repro.api import QuantConfig, quantize
    from repro.api.model import QuantMLP
    from repro.core.kernel import BiQGemm
    from repro.core.profiling import measure_hot_loop
    from repro.core.workspace import Workspace
    from repro.nn.linear import Linear
    from repro.quant.bcq import bcq_quantize

    rng = np.random.default_rng(0)
    dims = (128, 256, 128, 16) if quick else (512, 1024, 1024, 512, 64)
    batches = batches if batches is not None else (
        (1, 4) if quick else (1, 2, 4, 8)
    )
    repeats = repeats if repeats is not None else (20 if quick else 60)
    layers = [
        Linear(
            rng.standard_normal((dims[i + 1], dims[i])) * 0.05,
            rng.standard_normal(dims[i + 1]) * 0.01,
        )
        for i in range(len(dims) - 1)
    ]
    compiled = quantize(QuantMLP(layers), QuantConfig(bits=3, mu=8)).compile(
        batch_hint=1
    )
    compiled.warmup(sample=rng.standard_normal(dims[0]))

    def p50(x) -> float:
        for _ in range(max(5, repeats // 4)):
            compiled(x)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            compiled(x)
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2]

    rows: list[dict] = []
    for batch in batches:
        x = rng.standard_normal((batch, dims[0]))
        alloc = measure_hot_loop(
            lambda: compiled(x), warmups=2, repeats=3, min_alloc_bytes=1
        )
        rows.append(
            {
                "kind": "model",
                "batch": batch,
                "p50_ms": p50(x) * 1e3,
                "alloc_bytes": alloc["peak_new_bytes"],
            }
        )

    # Engine-level criterion: the flat-query hot loop allocates nothing.
    m, n = (128, 256) if quick else (512, 1024)
    engine = BiQGemm.from_bcq(
        bcq_quantize(rng.standard_normal((m, n)), 3), mu=8
    )
    xe = rng.standard_normal((n, 1)).astype(np.float32)
    ws = Workspace()

    def hot():
        ws.reset()
        engine.matmul(xe, query_impl="flat", builder="gemm", workspace=ws)

    report = measure_hot_loop(hot, warmups=3, repeats=5)
    rows.append(
        {
            "kind": "engine_flat",
            "batch": 1,
            "alloc_events": report["alloc_events"],
            "peak_new_bytes": report["peak_new_bytes"],
            "min_alloc_bytes": report["min_alloc_bytes"],
        }
    )
    return rows


def steady_state_experiment(quick: bool = False) -> list[Table]:
    """Steady-state serving: small-batch p50 and allocation churn of
    the CompiledModel forward, plus the zero-allocation engine loop."""
    table = Table(
        "Steady state: CompiledModel forward "
        "(BCQ MLP, 3-bit, mu=8, decode compile hint)",
        ["batch", "p50 ms", "req/s", "alloc/call bytes"],
        notes=[
            "shape to check: the flat-query engine hot loop served "
            "from a warm Workspace allocates nothing at all "
            "(events == 0)",
            "the >= 20% small-batch p50 acceptance bar is measured "
            "against the seed query kernel by "
            "benchmarks/bench_steady_state.py",
        ],
    )
    rows = steady_state_rows(quick)
    for row in rows:
        if row["kind"] != "model":
            continue
        table.add_row(
            row["batch"],
            row["p50_ms"],
            1e3 / row["p50_ms"],
            row["alloc_bytes"],
        )
    engine_row = next(r for r in rows if r["kind"] == "engine_flat")
    table.notes.append(
        f"engine flat-query hot loop: {engine_row['alloc_events']} "
        f"allocation events (peak {engine_row['peak_new_bytes']} B, "
        f"threshold {engine_row['min_alloc_bytes']} B)"
    )
    return [table]


def compiled_kernels_rows(
    quick: bool = False,
    *,
    batches: tuple[int, ...] | None = None,
    repeats: int | None = None,
) -> list[dict]:
    """The compiled engine's native fused kernel vs the other engines.

    The compiled engine's home regime is the paper's Table IV setting:
    1-bit weights, GEMV/small-batch, output-heavy shapes -- where LUT
    query work is minimal (one bit plane) while dense BLAS still pays
    the full float weight stream.  For each batch this measures the
    fused ``relu(W @ x + bias)`` step four ways: the compiled engine,
    the biqgemm reference plus a separate bias/activation epilogue,
    the non-invariant biqgemm fast path plus the epilogue, and dense
    BLAS plus the same epilogue.  ``speedup_vs_best`` is against the
    fastest of the other three.  Outputs are checked bit-identical
    against the batch-invariant loop-query reference; a final row
    records the modelled batch at which the planner would leave the
    compiled engine (the fusion crossover).
    """
    import time

    from repro.core.profiling import measure_hot_loop
    from repro.engine import (
        EngineBuildRequest,
        QuantSpec,
        build_engine,
        lossless_engines,
        plan_backend,
    )
    from repro.nn.functional import relu

    m = n = 2048 if quick else 4096
    bits, mu = 1, 8
    batches = batches if batches is not None else (1, 2)
    repeats = repeats if repeats is not None else (30 if quick else 40)
    rng = np.random.default_rng(0)
    w = rng.standard_normal((m, n))
    bias = rng.standard_normal(m)
    base_spec = QuantSpec(bits=bits, mu=mu)
    fused_spec = QuantSpec(bits=bits, mu=mu, backend="compiled", fuse="relu")
    compiled = build_engine(
        "compiled", EngineBuildRequest(spec=fused_spec, weight=w, bias=bias)
    )
    biq = build_engine(
        "biqgemm", EngineBuildRequest(spec=base_spec, weight=w)
    )
    dense = build_engine(
        "dense", EngineBuildRequest(spec=base_spec, weight=w)
    )

    def quantiles(fn, x) -> tuple[float, float]:
        fn(x)  # warm (build native plans / cast caches)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(x)
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2], times[int(0.95 * (len(times) - 1))]

    bias_col = bias[:, None]
    rows: list[dict] = []
    for b in batches:
        x = rng.standard_normal((n, b))
        # Bit-identity anchor: the batch-invariant loop-query reference
        # plus the same epilogue chain the kernel folds in.  biqgemm
        # ships batch-invariant by default -- that default IS the
        # unfused reference, so it is measured as-is; the non-invariant
        # fast mode forfeits bit-identity but still counts as "best".
        want = relu(biq.matmul(x) + bias_col)
        got = compiled.matmul(x)
        identical = bool(np.array_equal(got, want)) and got.dtype == want.dtype
        c50, c95 = quantiles(lambda x: compiled.matmul(x), x)
        b50, _ = quantiles(lambda x: relu(biq.matmul(x) + bias_col), x)
        d50, _ = quantiles(lambda x: relu(dense.matmul(x) + bias_col), x)
        biq.batch_invariant = False
        f50, _ = quantiles(lambda x: relu(biq.matmul(x) + bias_col), x)
        biq.batch_invariant = True
        alloc = measure_hot_loop(
            lambda: compiled.matmul(x), warmups=2, repeats=3,
            min_alloc_bytes=1,
        )
        rows.append(
            {
                "kind": "step",
                "m": m,
                "n": n,
                "bits": bits,
                "batch": b,
                "identical": identical,
                "compiled_p50_us": c50 * 1e6,
                "compiled_p95_us": c95 * 1e6,
                "biqgemm_p50_us": b50 * 1e6,
                "biqgemm_fast_p50_us": f50 * 1e6,
                "dense_p50_us": d50 * 1e6,
                "speedup_vs_biqgemm": b50 / c50,
                "speedup_vs_best": min(b50, d50, f50) / c50,
                "req_per_s": 1.0 / c50,
                "alloc_per_call_bytes": alloc["peak_new_bytes"],
            }
        )

    # Modelled fusion crossover: the first power-of-two batch at which
    # the planner stops choosing the compiled engine for this shape.
    crossover = None
    candidates = lossless_engines() + ("compiled",)
    trial = QuantSpec(bits=bits, mu=mu, fuse="relu")
    b = 1
    while b <= 1024:
        choice = plan_backend(
            m, n, spec=trial, batch_hint=b, candidates=candidates
        )
        if choice != "compiled":
            crossover = b
            break
        b *= 2
    rows.append({"kind": "crossover", "batch": crossover})
    return rows


def compiled_kernels_experiment(quick: bool = False) -> list[Table]:
    """Fused per-shape kernels: compiled engine vs biqgemm/dense at the
    GEMV decode regime (measured, plus the modelled crossover)."""
    table = Table(
        "Compiled kernels: fused relu(Wx+b) step, 1-bit mu=8 "
        "(measured p50/p95 on this host)",
        ["m=n", "batch", "compiled p50 us", "p95 us", "biqgemm+epi us",
         "biq-fast+epi us", "dense+epi us", "vs biqgemm", "vs best",
         "identical"],
        notes=[
            "shape to check: compiled >= 1.2x the best existing engine "
            "(fast path included) at batch 1-2 on the paper's 1-bit "
            "Table IV shapes, and bit-identical to the batch-invariant "
            "reference",
            "biq-fast = biqgemm with batch_invariant=False: not "
            "bit-identical to the reference; vs best counts it",
        ],
    )
    rows = compiled_kernels_rows(quick)
    for row in rows:
        if row["kind"] != "step":
            continue
        table.add_row(
            row["m"],
            row["batch"],
            row["compiled_p50_us"],
            row["compiled_p95_us"],
            row["biqgemm_p50_us"],
            row["biqgemm_fast_p50_us"],
            row["dense_p50_us"],
            row["speedup_vs_biqgemm"],
            row["speedup_vs_best"],
            "ok" if row["identical"] else "MISMATCH",
        )
    cross = next(r for r in rows if r["kind"] == "crossover")
    table.notes.append(
        "modelled planner crossover away from compiled: "
        f"batch {cross['batch'] if cross['batch'] else '> 1024'}"
    )
    return [table]


def serve_experiment(quick: bool = False) -> list[Table]:
    """Serving throughput: dynamic batcher vs batch-1 (the amortization
    claim, deployed).

    The paper's speedups exist because LUT construction amortizes over
    input columns; a serving runtime realises them only if something
    *creates* those columns from single-request traffic.  This measures
    exactly that: same model, same concurrent clients, batcher off vs
    on.
    """
    table = Table(
        "Serve throughput: dynamic micro-batching vs batch-1 serving "
        "(zoo transformer encoder, 3-bit BCQ, in-process clients)",
        ["batcher", "clients", "requests", "req/s", "speedup",
         "p50 ms", "p95 ms", "mean batch", "outputs"],
        notes=[
            "shape to check: batcher >= 2x req/s of batch-1 serving, "
            "outputs bit-identical to unbatched execution",
            "mean batch = requests served per model execution (the "
            "LUT-amortization ratio)",
        ],
    )
    for row in serve_throughput_rows(quick):
        table.add_row(
            row["mode"],
            row["clients"],
            row["requests"],
            row["req_per_s"],
            row["speedup"],
            row["p50_ms"],
            row["p95_ms"],
            row["mean_batch"],
            "ok" if row["mismatches"] == 0 else "MISMATCH",
        )
    return [table]


def serve_cluster_rows(
    quick: bool = False,
    *,
    clients: int | None = None,
    requests_per_client: int | None = None,
) -> list[dict]:
    """Process-pool serving under failure: the robustness contract,
    measured.

    Serves a quantized zoo encoder from a supervised **process** pool
    (``ServeConfig(cluster=True)``: one shared-memory model copy, N
    worker processes) and drives the same concurrent client load
    through three phases:

    - **cluster**: steady state, 2 workers -- establishes req/s and
      that every output is bit-identical to local execution;
    - **killed**: same load, but worker 0 is SIGKILLed mid-load --
      in-flight batches must be redelivered to the survivor and the
      slot respawned, with *zero* client-visible errors;
    - **scaling** (hosts with >= 4 cores only): 4 workers vs 1, the
      process-parallel speedup.  Narrow hosts skip the row entirely
      rather than record scheduler noise.

    The gated metrics are the zero-error flags, which are
    host-portable; req/s is recorded for the trajectory only.
    """
    import os
    import signal
    import threading
    import time

    from repro.api import QuantConfig, quantize
    from repro.nn.model_zoo import build_encoder
    from repro.serve import ServeConfig, Server
    from repro.serve.cluster import ClusterConfig

    clients = clients if clients is not None else (4 if quick else 8)
    requests_per_client = (
        requests_per_client
        if requests_per_client is not None
        else (4 if quick else 8)
    )
    encoder = build_encoder("transformer-base", scale=16, layers=1, seed=0)
    compiled = quantize(encoder, QuantConfig(bits=2, mu=4)).compile(
        batch_hint=1
    )
    compiled.warmup()
    rng = np.random.default_rng(0)
    dim = compiled.model.config.dim
    inputs = [rng.standard_normal((4, dim)) for _ in range(clients)]
    expected = [compiled(x[None])[0] for x in inputs]
    cluster_config = ClusterConfig(
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=2.0,
        start_timeout_s=180.0,
        respawn_backoff_s=0.05,
        redelivery_wait_s=120.0,
    )

    def run_load(workers: int, *, kill: bool = False) -> dict:
        server = Server(
            config=ServeConfig(
                workers=workers,
                max_batch=8,
                max_latency_ms=2.0,
                max_queue=4 * clients * requests_per_client,
                cluster=True,
                cluster_config=cluster_config,
            )
        )
        server.add_model("zoo", compiled)
        errors: list[BaseException] = []
        mismatches: list[int] = []

        def run_client(i: int) -> None:
            for _ in range(requests_per_client):
                try:
                    out = server.predict("zoo", inputs[i], timeout=120.0)
                except Exception as exc:  # noqa: BLE001 -- tallied
                    errors.append(exc)
                else:
                    if not np.array_equal(out, expected[i]):
                        mismatches.append(i)

        with server:
            threads = [
                threading.Thread(target=run_client, args=(i,))
                for i in range(clients)
            ]
            start = time.perf_counter()
            # The kill must land while requests are in flight, so the
            # killed phase staggers the clients around the SIGKILL.
            first = threads[: len(threads) // 2] if kill else threads
            for t in first:
                t.start()
            if kill:
                time.sleep(0.02)
                victim = server._runtimes["zoo"].pool._supervisor.handle(0)
                os.kill(victim.pid, signal.SIGKILL)
                for t in threads[len(threads) // 2:]:
                    t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            stats = server.metrics()["models"]["zoo"]["cluster"]
            if kill:
                # Wait out the supervisor's accounting of the death so
                # the recorded deaths/respawns reflect the kill.
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    stats = server.metrics()["models"]["zoo"]["cluster"]
                    if stats["deaths"] >= 1 and all(
                        w["alive"] for w in stats["workers"]
                    ):
                        break
                    time.sleep(0.1)
        total = clients * requests_per_client
        return {
            "workers": workers,
            "requests": total,
            "seconds": elapsed,
            "req_per_s": total / elapsed,
            "errors": len(errors),
            "mismatches": len(mismatches),
            "deaths": stats["deaths"],
            "respawns": stats["respawns"],
            "redelivered": stats["redelivered"],
            "shared_kb": stats["shared_bytes"] / 1024,
        }

    rows = [
        {"kind": "cluster", **run_load(2)},
        {"kind": "killed", **run_load(2, kill=True)},
    ]
    if (os.cpu_count() or 1) >= 4:
        narrow = run_load(1)
        wide = run_load(4)
        rows.append(
            {
                "kind": "scaling",
                **wide,
                "scaling_vs_1worker": wide["req_per_s"]
                / max(narrow["req_per_s"], 1e-9),
            }
        )
    return rows


def serve_cluster_experiment(quick: bool = False) -> list[Table]:
    """Cluster serving: zero client-visible errors across worker death.

    The robustness analogue of the ``serve`` experiment: same client
    load, but through the supervised process pool -- steady state,
    then with a worker SIGKILLed mid-load (redelivery must hide it),
    then (on wide-enough hosts) the 4-vs-1 worker scaling.
    """
    table = Table(
        "Cluster serving: supervised process pool, steady vs SIGKILL "
        "mid-load (zoo transformer encoder, 2-bit BCQ, one "
        "shared-memory model copy)",
        ["phase", "workers", "requests", "req/s", "errors",
         "mismatches", "deaths", "respawns", "redelivered"],
        notes=[
            "shape to check: zero errors and zero mismatches in every "
            "phase -- including the one where a worker is SIGKILLed "
            "mid-load (in-flight batches redeliver to the survivor)",
            "the scaling phase appears only on hosts with >= 4 cores; "
            "narrow hosts would record scheduler noise, not scaling",
        ],
    )
    for row in serve_cluster_rows(quick):
        table.add_row(
            row["kind"],
            row["workers"],
            row["requests"],
            row["req_per_s"],
            row["errors"],
            row["mismatches"],
            row["deaths"],
            row["respawns"],
            row["redelivered"],
        )
    return [table]


def decode_rows(
    quick: bool = False,
    *,
    lengths: tuple[int, ...] | None = None,
    sequence_counts: tuple[int, ...] | None = None,
) -> list[dict]:
    """Autoregressive decode: KV-cached step loop vs full recompute.

    The paper's headline regime is the batch-1 GEMV of autoregressive
    decoding; this measures the runtime that serves it.  A quantized
    :class:`~repro.gen.DecoderLM` (biqgemm backend, decode compile
    hint) decodes to several total sequence lengths two ways:

    - **cached**: ``CompiledModel.generate`` -- one prefill, then one
      single-token ``step()`` per emitted token against the KV cache;
    - **recompute**: the pre-``repro.gen`` loop -- every emitted token
      re-runs the full causal forward over the whole prefix.

    Both are greedy and must emit the *same token ids* (the KV cache
    is bit-identical to the recompute, so this is an equality check on
    the whole chain, not a tolerance).  A second sweep drives 1..n
    concurrent streams through the :class:`SequenceScheduler` and
    reports aggregate tokens/s plus the coalescing ratio
    (tokens per decode tick -- the continuous-batching LUT
    amortization).
    """
    import threading
    import time

    from repro.api import QuantConfig, quantize
    from repro.gen.model import DecoderLM
    from repro.nn.transformer import TransformerConfig
    from repro.serve.sequences import SequenceScheduler
    from repro.serve.telemetry import GenTelemetry

    rng = np.random.default_rng(0)
    if quick:
        config = TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2)
        vocab = 64
    else:
        config = TransformerConfig(dim=128, heads=8, ff_dim=256, layers=4)
        vocab = 256
    lengths = lengths if lengths is not None else (
        (64, 256) if quick else (64, 128, 256)
    )
    sequence_counts = sequence_counts if sequence_counts is not None else (
        (1, 4) if quick else (1, 2, 4, 8)
    )
    compiled = quantize(
        DecoderLM(config, vocab, seed=0),
        QuantConfig(bits=3, mu=8, backend="biqgemm"),
    ).compile(batch_hint=1)

    prompt_len = 8
    prompt = rng.integers(0, vocab, size=prompt_len)
    compiled.generate(prompt, 4)  # warm: LUTs, arenas, cache buckets

    rows: list[dict] = []
    for length in lengths:
        new_tokens = length - prompt_len
        t0 = time.perf_counter()
        cached = compiled.generate(prompt, new_tokens)
        cached_s = time.perf_counter() - t0

        ids = [int(t) for t in prompt]
        recompute: list[int] = []
        t0 = time.perf_counter()
        for _ in range(new_tokens):
            logits = compiled(np.asarray([ids], dtype=np.int64))
            token = int(np.argmax(logits[0, -1]))
            ids.append(token)
            recompute.append(token)
        recompute_s = time.perf_counter() - t0

        rows.append(
            {
                "kind": "decode",
                "length": length,
                "new_tokens": new_tokens,
                "cached_tok_per_s": new_tokens / cached_s,
                "recompute_tok_per_s": new_tokens / recompute_s,
                "speedup": recompute_s / cached_s,
                "identical": cached == recompute,
            }
        )

    decode_tokens = 16 if quick else 32
    for count in sequence_counts:
        telemetry = GenTelemetry()
        prompts = [
            rng.integers(0, vocab, size=prompt_len) for _ in range(count)
        ]
        with SequenceScheduler(
            compiled,
            max_sequences=count,
            name=f"bench{count}",
            telemetry=telemetry,
        ) as scheduler:
            barrier = threading.Barrier(count)

            def consume(p):
                stream = scheduler.generate(p, decode_tokens)
                barrier.wait()
                list(stream)

            threads = [
                threading.Thread(target=consume, args=(p,)) for p in prompts
            ]
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - t0
        rows.append(
            {
                "kind": "scheduler",
                "sequences": count,
                "tok_per_s": count * decode_tokens / elapsed,
                "coalescing_ratio": telemetry.coalescing_ratio,
            }
        )
    return rows


def decode_experiment(quick: bool = False) -> list[Table]:
    """Autoregressive decode: KV-cached generate() vs full recompute,
    plus continuously-batched multi-stream throughput."""
    decode_table = Table(
        "Decode throughput: KV-cached step loop vs full recompute "
        "(DecoderLM, 3-bit BCQ, biqgemm, greedy)",
        ["total len", "new tokens", "cached tok/s", "recompute tok/s",
         "speedup", "tokens"],
        notes=[
            "shape to check: speedup grows with sequence length (the "
            "recompute loop is O(t) forwards of O(t) work each) and "
            "reaches >= 5x at 256-token sequences",
            "tokens must read 'identical': the KV-cached chain emits "
            "bit-for-bit the same ids as the recompute chain",
        ],
    )
    scheduler_table = Table(
        "Continuous batching: concurrent streams through the "
        "SequenceScheduler (one coalesced step_many per tick)",
        ["sequences", "aggregate tok/s", "coalescing ratio"],
        notes=[
            "coalescing ratio = tokens per decode tick; > 1 means the "
            "scheduler is amortizing LUT construction across streams",
        ],
    )
    for row in decode_rows(quick):
        if row["kind"] == "decode":
            decode_table.add_row(
                row["length"],
                row["new_tokens"],
                row["cached_tok_per_s"],
                row["recompute_tok_per_s"],
                row["speedup"],
                "identical" if row["identical"] else "MISMATCH",
            )
        else:
            scheduler_table.add_row(
                row["sequences"],
                row["tok_per_s"],
                row["coalescing_ratio"],
            )
    return [decode_table, scheduler_table]


def obs_overhead_rows(
    quick: bool = False,
    *,
    batches: tuple[int, ...] | None = None,
    repeats: int | None = None,
) -> list[dict]:
    """Observability cost: model-forward p50 with obs off, tracing on,
    and the sampling profiler on.

    The :mod:`repro.obs` contract is that *disabled* observability costs
    one boolean read on the hot path; *enabled* tracing pays for span
    objects, the profiler bridge, and (on engines that accept a
    profiler) the un-fused kernel path; the *sampling profiler* is the
    always-on tier and must stay under ~1% (it never touches the hot
    path -- its cost is a 97 Hz ``sys._current_frames()`` walk on its
    own thread, plus GIL contention).  This measures all three on the
    steady-state substrate so the trade is a number, not a claim.
    """
    import time

    import repro.obs as obs
    from repro.api import QuantConfig, quantize
    from repro.api.model import QuantMLP
    from repro.nn.linear import Linear
    from repro.obs.trace import get_tracer

    rng = np.random.default_rng(0)
    dims = (128, 256, 16) if quick else (512, 1024, 512, 64)
    batches = batches if batches is not None else (
        (1, 4) if quick else (1, 2, 8)
    )
    repeats = repeats if repeats is not None else (20 if quick else 60)
    layers = [
        Linear(
            rng.standard_normal((dims[i + 1], dims[i])) * 0.05,
            rng.standard_normal(dims[i + 1]) * 0.01,
        )
        for i in range(len(dims) - 1)
    ]
    compiled = quantize(QuantMLP(layers), QuantConfig(bits=3, mu=8)).compile(
        batch_hint=1
    )
    compiled.warmup(sample=rng.standard_normal(dims[0]))

    def p50(x) -> float:
        for _ in range(max(5, repeats // 4)):
            compiled(x)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            compiled(x)
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2]

    rows: list[dict] = []
    try:
        for batch in batches:
            x = rng.standard_normal((batch, dims[0]))
            obs.disable()
            off_p50 = p50(x)
            obs.enable(tracing=True, drift=True, clear=True)
            on_p50 = p50(x)
            spans = get_tracer().stats()["recorded"]
            obs.disable()
            # Profiler only: the hot path stays on its fused fast path
            # (no spans, no drift) while the sampler walks frames from
            # its own thread at the default 97 Hz.
            obs.enable(
                tracing=False, drift=False, profile=True, clear=True
            )
            profiled_p50 = p50(x)
            profiler = obs.get_profiler()
            samples = profiler.stats()["samples"] if profiler else 0
            obs.disable()
            rows.append(
                {
                    "batch": batch,
                    "off_p50_ms": off_p50 * 1e3,
                    "on_p50_ms": on_p50 * 1e3,
                    "overhead": (on_p50 - off_p50) / off_p50,
                    "profiled_p50_ms": profiled_p50 * 1e3,
                    "profiler_overhead": (profiled_p50 - off_p50) / off_p50,
                    "profiler_samples": samples,
                    "spans_recorded": spans,
                }
            )
    finally:
        obs.disable()
        get_tracer().clear()
    return rows


def profiler_cost(
    quick: bool = False,
    *,
    attempts: int = 3,
    repeats: int | None = None,
) -> dict:
    """The always-on sampling profiler's hot-path tax, measured to gate.

    min-of-N forward times with the profiler off vs on (default 97 Hz),
    interleaved and repeated *attempts* times; the reported ratio is
    the best attempt.  min-of-N rejects additive noise (every slower
    sample is the same work plus interference), and best-of-attempts
    rejects a whole attempt poisoned by a scheduling storm -- a real
    regression fails every attempt.
    """
    import time

    import repro.obs as obs
    from repro.api import QuantConfig, quantize
    from repro.api.model import QuantMLP
    from repro.nn.linear import Linear

    rng = np.random.default_rng(0)
    # Sized so the quick forward stays well above the 200 us the 1%
    # gate needs to resolve, with every layer on the native kernel.
    dims = (512, 1024, 512, 64) if quick else (1024, 2048, 1024, 64)
    repeats = repeats if repeats is not None else (30 if quick else 60)
    layers = [
        Linear(
            rng.standard_normal((dims[i + 1], dims[i])) * 0.05,
            rng.standard_normal(dims[i + 1]) * 0.01,
        )
        for i in range(len(dims) - 1)
    ]
    compiled = quantize(QuantMLP(layers), QuantConfig(bits=3, mu=8)).compile(
        batch_hint=1
    )
    compiled.warmup(sample=rng.standard_normal(dims[0]))
    x = rng.standard_normal((2, dims[0]))

    def min_time() -> float:
        for _ in range(8):
            compiled(x)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            compiled(x)
            best = min(best, time.perf_counter() - t0)
        return best

    best = None
    samples = 0
    try:
        for _ in range(max(1, attempts)):
            obs.disable()
            off = min_time()
            obs.enable(
                tracing=False, drift=False, profile=True, clear=True
            )
            on = min_time()
            profiler = obs.get_profiler()
            if profiler is not None:
                samples = max(samples, profiler.stats()["samples"])
            obs.disable()
            if best is None or on / off < best[0]:
                best = (on / off, off, on)
    finally:
        obs.disable()
    ratio, off, on = best
    return {
        "ratio": ratio,
        "off_min_ms": off * 1e3,
        "profiled_min_ms": on * 1e3,
        "profiler_samples": samples,
        "attempts": attempts,
    }


def obs_overhead_experiment(quick: bool = False) -> list[Table]:
    """Observability: traced vs untraced forward p50 (the no-op-path
    cost claim, measured)."""
    table = Table(
        "Observability overhead: CompiledModel forward p50, obs "
        "disabled vs tracing+drift enabled vs sampling profiler "
        "(97 Hz) alone (BCQ MLP, 3-bit, mu=8)",
        [
            "batch",
            "p50 off ms",
            "p50 traced ms",
            "overhead %",
            "p50 profiled ms",
            "profiler %",
            "spans",
        ],
        notes=[
            "shape to check: the off column matches the steady_state "
            "bench (disabled obs is one boolean read per call site); "
            "the traced column buys per-layer engine.matmul and kernel "
            "phase spans",
            "traced runs opt engines with accepts_profiler out of "
            "their fused fast path, so overhead bounds the *worst* "
            "cost of tracing, not the typical scrape cost (metrics "
            "collectors are pull-only)",
            "the profiler column is the always-on tier: frame walks "
            "on the sampler's own thread, hot path untouched -- "
            "bench_obs_overhead.py gates it under 1%",
        ],
    )
    for row in obs_overhead_rows(quick):
        table.add_row(
            row["batch"],
            row["off_p50_ms"],
            row["on_p50_ms"],
            100.0 * row["overhead"],
            row["profiled_p50_ms"],
            100.0 * row["profiler_overhead"],
            row["spans_recorded"],
        )
    return [table]


EXPERIMENTS: dict[str, Callable[[bool], list[Table]]] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "mu": mu_ablation,
    "lut_build": lut_build_ablation,
    "tiling": tiling_ablation,
    "threads": threads_ablation,
    "models": models_experiment,
    "shared": shared_ablation,
    "cache": cache_ablation,
    "qat": qat_experiment,
    "dispatch": dispatch_experiment,
    "model_compile": model_compile_experiment,
    "serve": serve_experiment,
    "serve_cluster": serve_cluster_experiment,
    "steady_state": steady_state_experiment,
    "compiled_kernels": compiled_kernels_experiment,
    "obs_overhead": obs_overhead_experiment,
    "decode": decode_experiment,
}
"""Experiment id -> callable (see DESIGN.md Section 4 for the mapping)."""


def run_experiment(name: str, *, quick: bool = False) -> list[Table]:
    """Run one registered experiment and return its tables."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}"
        ) from None
    return fn(quick)
