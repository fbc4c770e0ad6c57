"""Unit tests for repro.nn.functional."""

import numpy as np
import pytest

from repro.nn.functional import gelu, layer_norm, relu, sigmoid, softmax, tanh


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        p = softmax(rng.standard_normal((4, 7)))
        assert np.allclose(p.sum(axis=-1), 1.0)

    def test_stable_for_large_values(self):
        p = softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(p, [0.5, 0.5])

    def test_stable_for_very_negative(self):
        p = softmax(np.array([-1e9, 0.0]))
        assert np.allclose(p, [0.0, 1.0])

    def test_shift_invariance(self, rng):
        x = rng.standard_normal(5)
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_axis_argument(self, rng):
        x = rng.standard_normal((3, 4))
        assert np.allclose(softmax(x, axis=0).sum(axis=0), 1.0)

    def test_out_matches_allocating_path(self, rng):
        x = rng.standard_normal((4, 7))
        reference = softmax(x)
        out = np.empty_like(x)
        result = softmax(x, out=out)
        assert result is out
        np.testing.assert_array_equal(out, reference)

    def test_out_may_alias_input(self, rng):
        x = rng.standard_normal((4, 7))
        reference = softmax(x)
        result = softmax(x, out=x)
        assert result is x
        np.testing.assert_array_equal(x, reference)

    def test_out_shape_mismatch_rejected(self, rng):
        x = rng.standard_normal((4, 7))
        with pytest.raises(ValueError):
            softmax(x, out=np.empty((4, 6)))


class TestLayerNorm:
    def test_zero_mean_unit_var(self, rng):
        out = layer_norm(rng.standard_normal((3, 16)) * 5 + 2)
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_affine(self, rng):
        x = rng.standard_normal((2, 8))
        gamma = np.full(8, 2.0)
        beta = np.ones(8)
        out = layer_norm(x, gamma, beta)
        base = layer_norm(x)
        assert np.allclose(out, 2.0 * base + 1.0)

    def test_constant_input(self):
        out = layer_norm(np.full((2, 4), 3.0))
        assert np.allclose(out, 0.0)


class TestActivations:
    def test_relu(self):
        assert np.array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])

    def test_sigmoid_range_and_symmetry(self, rng):
        x = rng.standard_normal(100) * 10
        s = sigmoid(x)
        assert ((s > 0) & (s < 1)).all()
        assert np.allclose(s + sigmoid(-x), 1.0)

    def test_sigmoid_extreme_values_no_overflow(self):
        s = sigmoid(np.array([-1e4, 1e4]))
        assert np.allclose(s, [0.0, 1.0])

    def test_tanh_matches_numpy(self, rng):
        x = rng.standard_normal(10)
        assert np.allclose(tanh(x), np.tanh(x))

    def test_gelu_known_points(self):
        assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-4)
        # gelu(-10) ~ 0.
        assert abs(gelu(np.array([-10.0]))[0]) < 1e-3

    def test_gelu_monotone_near_origin(self):
        x = np.linspace(-0.5, 0.5, 21)
        assert (np.diff(gelu(x)) > 0).all()
