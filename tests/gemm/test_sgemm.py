"""Unit tests for BLAS GEMM baselines (repro.gemm.sgemm)."""

import numpy as np
import pytest

from repro.gemm.sgemm import sgemm, sgemm_container
from repro.quant.bcq import bcq_quantize
from tests.conftest import random_binary


class TestSgemm:
    def test_matches_numpy(self, rng):
        w = rng.standard_normal((6, 9))
        x = rng.standard_normal((9, 4))
        assert np.allclose(sgemm(w, x), w @ x)

    def test_vector(self, rng):
        w = rng.standard_normal((6, 9))
        x = rng.standard_normal(9)
        assert sgemm(w, x).shape == (6,)

    def test_float32_operands(self, rng):
        w = rng.standard_normal((3, 4)).astype(np.float32)
        x = rng.standard_normal((4, 2)).astype(np.float32)
        out = sgemm(w, x)
        assert out.dtype == np.float32

    def test_mixed_dtype_promotes(self, rng):
        w = rng.standard_normal((3, 4)).astype(np.float32)
        x = rng.standard_normal((4, 2))
        assert sgemm(w, x).dtype == np.float64

    def test_rejects_mismatch(self, rng):
        with pytest.raises(ValueError, match="inner dimensions"):
            sgemm(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))

    def test_rejects_1d_weight(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            sgemm(rng.standard_normal(4), rng.standard_normal(4))


class TestSgemmContainer:
    def test_single_plane_no_scales(self, rng):
        b = random_binary(rng, (5, 8))
        x = rng.standard_normal((8, 3))
        assert np.allclose(sgemm_container(b, x), b.astype(float) @ x)

    def test_multi_plane_with_scales_matches_eq2(self, rng):
        w = rng.standard_normal((6, 12))
        t = bcq_quantize(w, 3)
        x = rng.standard_normal((12, 4))
        out = sgemm_container(t.binary, x, t.alphas)
        assert np.allclose(out, t.matmul_dense(x), atol=1e-10)

    def test_vector_input(self, rng):
        b = random_binary(rng, (4, 6))
        x = rng.standard_normal(6)
        assert sgemm_container(b, x).shape == (4,)

    def test_1d_alphas_promoted(self, rng):
        b = random_binary(rng, (4, 6))
        alphas = rng.uniform(0.5, 1.0, size=4)
        x = rng.standard_normal((6, 2))
        expected = alphas[:, None] * (b.astype(float) @ x)
        assert np.allclose(sgemm_container(b, x, alphas), expected)

    def test_rejects_non_binary(self, rng):
        with pytest.raises(ValueError, match="-1/\\+1"):
            sgemm_container(np.zeros((2, 4)), rng.standard_normal((4, 1)))

    def test_rejects_bad_alpha_shape(self, rng):
        b = random_binary(rng, (4, 6))
        with pytest.raises(ValueError, match="alphas"):
            sgemm_container(b, rng.standard_normal((6, 1)), np.ones((2, 3)))

    def test_rejects_4d_binary(self, rng):
        with pytest.raises(ValueError, match="2-D or 3-D"):
            sgemm_container(
                random_binary(rng, (1, 1, 2, 2)), rng.standard_normal((2, 1))
            )
