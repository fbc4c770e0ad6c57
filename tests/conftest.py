"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "smoke: cross-process end-to-end checks; they run in the "
        "tier-1 suite, and `pytest -m smoke` selects them alone",
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic per-test random generator."""
    return np.random.default_rng(1234)


def random_binary(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform random ``{-1,+1}`` int8 tensor (shared helper)."""
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=shape)


@pytest.fixture()
def binary_matrix(rng) -> np.ndarray:
    """A modest random binary weight matrix."""
    return random_binary(rng, (24, 40))
