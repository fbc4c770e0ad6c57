"""Reference numbers transcribed from the paper, for side-by-side tables.

Keeping the published values next to our regenerated ones makes every
bench self-auditing: the harness prints paper vs model/measured in one
grid.
"""

from __future__ import annotations

__all__ = ["TABLE1_PAPER", "TABLE4_PAPER", "TABLE2_PAPER_TOTALS"]

# Table I: (reference, scheme, weight bits, activation bits, BLEU, delta)
TABLE1_PAPER: tuple[tuple[str, str, int, int, float, float], ...] = (
    ("[16]", "baseline", 32, 32, 27.68, 0.0),
    ("[16]", "uniform", 8, 8, 27.30, -0.22),
    ("[47]", "baseline", 32, 32, 26.46, 0.0),
    ("[47]", "uniform", 8, 8, 26.38, -0.80),
    ("[47]", "uniform", 6, 6, 26.98, +0.52),
    ("[47]", "uniform", 4, 4, 18.32, -8.14),
    ("[48]", "baseline", 32, 32, 25.8, 0.0),
    ("[48]", "bcq-greedy", 4, 32, 25.5, -0.3),
    ("[48]", "bcq-greedy", 3, 32, 25.3, -0.5),
    ("[48]", "bcq-greedy", 2, 32, 23.9, -1.9),
    ("[48]", "bcq-greedy", 1, 32, 0.4, -25.4),
)

# Table IV: {(n, batch): (biqgemm_us, kgpu_us, cublas_us, xnor_us)} on V100,
# square n-by-n weights, 1-bit quantization.
TABLE4_PAPER: dict[tuple[int, int], tuple[float, float, float, float]] = {
    (512, 1): (4, 22, 12, 18),
    (512, 32): (11, 24, 20, 18),
    (512, 128): (30, 39, 25, 19),
    (512, 256): (58, 63, 26, 19),
    (1024, 1): (4, 36, 14, 18),
    (1024, 32): (20, 57, 27, 19),
    (1024, 128): (70, 120, 45, 21),
    (1024, 256): (135, 204, 64, 24),
    (2048, 1): (5, 93, 31, 19),
    (2048, 32): (47, 153, 52, 23),
    (2048, 128): (175, 366, 109, 29),
    (2048, 256): (330, 661, 179, 40),
    (4096, 1): (7, 213, 90, 23),
    (4096, 32): (130, 614, 130, 34),
    (4096, 128): (528, 1396, 339, 64),
    (4096, 256): (1005, 2516, 594, 109),
}

# Table II: {(w_bits, a_bits): total_mb} as printed in the paper.
TABLE2_PAPER_TOTALS: dict[tuple[int, int], float] = {
    (32, 32): 1.122,
    (8, 8): 0.308,
    (6, 6): 0.240,
    (4, 4): 0.173,
    (4, 32): 0.205,
    (3, 32): 0.172,
    (2, 32): 0.139,
}
