"""Shared fixtures for the benchmark suite.

Each ``bench_*.py`` module covers one paper table/figure, ablation or
hot-path experiment of :mod:`repro.bench.registry`.  Besides timing the relevant kernels with pytest-benchmark,
every module regenerates its artifact through the experiment registry
and writes the rendered table to ``benchmarks/out/<id>.txt`` so a bench
run leaves the full set of reproduced tables on disk.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    """Directory collecting the regenerated paper tables."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


def write_artifact(directory: Path, name: str, tables) -> None:
    """Render *tables* and persist them as one text artifact."""
    from repro.bench.report import render_table

    text = "\n".join(render_table(t) for t in tables)
    (directory / f"{name}.txt").write_text(text)


def random_binary(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=shape)
