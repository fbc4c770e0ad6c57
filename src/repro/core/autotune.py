"""Empirical tuning: LUT-unit selection.

LUT-unit (paper Section IV-A): ``mu`` trades table count against table
size -- larger ``mu`` replaces more arithmetic per lookup but grows each
table exponentially.  From paper Eq. 9 the relative cost of BiQGEMM over
GEMM is ``(2^mu + m) / (m * mu)``, so for a given output size ``m`` the
analytic optimum is ``argmin_mu (2^mu + m) / (m * mu)`` -- the paper
reports that ``mu = 8`` is "close to the value optimized in theory"
across its matrix sizes, and that hardware (SRAM) limits the practical
maximum.  :func:`empirical_mu` re-derives the choice by timing the real
kernel.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from repro._util import check_positive_int
from repro.core.keys import MAX_MU

__all__ = [
    "analytic_mu",
    "analytic_cost_ratio",
    "empirical_mu",
]


def analytic_cost_ratio(mu: int, m: int) -> float:
    """Paper Eq. 9 ratio ``(2^mu + m) / (m * mu)``.

    BiQGEMM time relative to GEMM's ``O(m n b)``; smaller is better and
    values < 1 mean BiQGEMM performs less work than GEMM.
    """
    check_positive_int(mu, "mu", upper=MAX_MU)
    check_positive_int(m, "m")
    return ((1 << mu) + m) / (m * mu)


def analytic_mu(m: int, candidates: Iterable[int] | None = None) -> int:
    """Analytically optimal LUT-unit for output size *m* (paper Eq. 9).

    >>> analytic_mu(1024)
    8
    """
    check_positive_int(m, "m")
    cand = list(candidates) if candidates is not None else list(range(1, MAX_MU + 1))
    if not cand:
        raise ValueError("candidates must be non-empty")
    return min(cand, key=lambda mu: analytic_cost_ratio(mu, m))


def empirical_mu(
    m: int,
    n: int,
    batch: int,
    *,
    bits: int = 1,
    candidates: Sequence[int] = (2, 4, 6, 8, 10),
    repeats: int = 3,
    seed: int = 0,
    builder: str = "auto",
) -> tuple[int, dict[int, float]]:
    """Time the real kernel over *candidates* and return the fastest ``mu``.

    Returns ``(best_mu, {mu: median_seconds})``.  This is the empirical
    verification loop the paper describes ("theoretically optimized mu
    should be verified empirically throughout extensive experiments").
    Uses a fixed seed for the synthetic weights/activations so results
    are reproducible.
    """
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    check_positive_int(batch, "batch")
    check_positive_int(repeats, "repeats")
    if not candidates:
        raise ValueError("candidates must be non-empty")
    from repro.core.kernel import BiQGemm

    rng = np.random.default_rng(seed)
    binary = rng.choice(np.array([-1, 1], dtype=np.int8), size=(bits, m, n))
    x = rng.standard_normal((n, batch)).astype(np.float32)
    timings: dict[int, float] = {}
    for mu in candidates:
        engine = BiQGemm.from_binary(binary, mu=mu)
        engine.matmul(x, builder=builder)  # warm-up
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            engine.matmul(x, builder=builder)
            samples.append(time.perf_counter() - t0)
        timings[mu] = float(np.median(samples))
    best = min(timings, key=timings.__getitem__)
    return best, timings

