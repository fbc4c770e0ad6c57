"""Unit tests for lookup-table construction (repro.core.lut)."""

import numpy as np
import pytest

from repro.core.keys import encode_keys
from repro.core.lut import (
    build_table_reference,
    build_tables_dp,
    build_tables_gemm,
    dp_flop_count,
    gemm_build_flop_count,
    reshape_input,
    sign_matrix,
)


class TestSignMatrix:
    def test_shape_and_values(self):
        m = sign_matrix(3)
        assert m.shape == (8, 3)
        assert set(np.unique(m)) == {-1, 1}

    def test_row_zero_all_minus(self):
        assert (sign_matrix(4)[0] == -1).all()

    def test_last_row_all_plus(self):
        assert (sign_matrix(4)[-1] == 1).all()

    def test_rows_are_distinct(self):
        m = sign_matrix(5)
        assert len({tuple(r) for r in m.tolist()}) == 32

    def test_key_semantics_match_encode_keys(self, rng):
        # Row k of M_mu must be exactly the slice whose key is k.
        mu = 5
        m = sign_matrix(mu)
        km = encode_keys(m.astype(np.int8), mu)
        assert np.array_equal(
            km.keys[0, :, 0], np.arange(1 << mu, dtype=km.keys.dtype)
        )

    def test_negation_symmetry(self):
        m = sign_matrix(6)
        assert np.array_equal(m[::-1], -m)


class TestReshapeInput:
    def test_layout_matches_definition(self, rng):
        # Xhat[g, :, col] == x_col[g*mu : (g+1)*mu] (paper Def. 2).
        x = rng.standard_normal((12, 3))
        xhat = reshape_input(x, 4)
        assert xhat.shape == (3, 4, 3)
        for g in range(3):
            for col in range(3):
                assert np.array_equal(
                    xhat[g, :, col], x[g * 4 : (g + 1) * 4, col]
                )

    def test_zero_padding(self, rng):
        x = rng.standard_normal((10, 2))
        xhat = reshape_input(x, 4)
        assert xhat.shape == (3, 4, 2)
        assert (xhat[2, 2:, :] == 0).all()

    def test_vector_promoted(self, rng):
        xhat = reshape_input(rng.standard_normal(8), 4)
        assert xhat.shape == (2, 4, 1)

    def test_preserves_float32(self, rng):
        x = rng.standard_normal((8, 2)).astype(np.float32)
        assert reshape_input(x, 4).dtype == np.float32

    def test_int_input_promoted_to_float(self):
        xhat = reshape_input(np.arange(8), 4)
        assert np.issubdtype(xhat.dtype, np.floating)

    def test_rejects_3d(self, rng):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            reshape_input(rng.standard_normal((2, 2, 2)), 2)


class TestBuildTableReference:
    def test_matches_sign_matrix_product(self, rng):
        for mu in (1, 2, 3, 4, 6, 8):
            x = rng.standard_normal(mu)
            expected = sign_matrix(mu).astype(np.float64) @ x
            assert np.allclose(build_table_reference(x, mu), expected)

    def test_entry_zero_is_negative_sum(self, rng):
        x = rng.standard_normal(4)
        table = build_table_reference(x, 4)
        assert np.isclose(table[0], -x.sum())

    def test_last_entry_is_positive_sum(self, rng):
        x = rng.standard_normal(4)
        table = build_table_reference(x, 4)
        assert np.isclose(table[-1], x.sum())

    def test_mu_inferred_from_length(self, rng):
        x = rng.standard_normal(3)
        assert build_table_reference(x).shape == (8,)

    def test_rejects_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="length"):
            build_table_reference(rng.standard_normal(4), 3)

    def test_rejects_2d(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            build_table_reference(rng.standard_normal((2, 2)), 2)


class TestVectorizedBuilders:
    @pytest.mark.parametrize("mu", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("use_symmetry", [True, False])
    def test_dp_matches_reference(self, rng, mu, use_symmetry):
        groups, batch = 3, 2
        x = rng.standard_normal((groups * mu, batch))
        xhat = reshape_input(x, mu)
        q = build_tables_dp(xhat, use_symmetry=use_symmetry)
        assert q.shape == (groups, 1 << mu, batch)
        for g in range(groups):
            for col in range(batch):
                expected = build_table_reference(xhat[g, :, col], mu)
                assert np.allclose(q[g, :, col], expected)

    @pytest.mark.parametrize("mu", [1, 2, 4, 8])
    def test_gemm_matches_dp(self, rng, mu):
        xhat = reshape_input(rng.standard_normal((4 * mu, 3)), mu)
        assert np.allclose(build_tables_gemm(xhat), build_tables_dp(xhat))

    def test_float32_dtype_preserved(self, rng):
        xhat = reshape_input(rng.standard_normal((8, 2)).astype(np.float32), 4)
        assert build_tables_dp(xhat).dtype == np.float32
        assert build_tables_gemm(xhat).dtype == np.float32

    def test_table_lookup_equals_dot_product(self, rng):
        # For every possible key, table[key] equals slice . x -- the
        # core invariant BiQGEMM rests on.
        mu = 4
        xhat = reshape_input(rng.standard_normal((mu, 1)), mu)
        q = build_tables_dp(xhat)
        m_mu = sign_matrix(mu).astype(np.float64)
        for key in range(1 << mu):
            assert np.isclose(q[0, key, 0], m_mu[key] @ xhat[0, :, 0])

    def test_rejects_2d_input(self, rng):
        with pytest.raises(ValueError, match="groups, mu, b"):
            build_tables_dp(rng.standard_normal((4, 4)))

    def test_rejects_mu_too_large(self, rng):
        with pytest.raises(ValueError):
            build_tables_dp(rng.standard_normal((1, 17, 1)))


class TestFlopCounts:
    def test_dp_count_eq6(self):
        # Paper Eq. 6: (2^mu + mu - 1) per table.
        assert dp_flop_count(4, 1, 1) == 16 + 3
        assert dp_flop_count(8, 10, 2) == (256 + 7) * 20

    def test_gemm_count(self):
        assert gemm_build_flop_count(4, 1, 1) == 16 * 4

    def test_dp_asymptotically_mu_times_cheaper(self):
        # Paper: T_c,dp is mu times less than T_c,mm; the ratio
        # 2^mu*mu / (2^mu + mu - 1) approaches mu from below as 2^mu
        # grows past mu.
        for mu in (6, 8, 10, 12):
            ratio = gemm_build_flop_count(mu, 7, 3) / dp_flop_count(mu, 7, 3)
            assert ratio < mu
            assert ratio == pytest.approx(mu, rel=0.10 if mu >= 8 else 0.15)


class TestReshapeInputNoCopy:
    """Regression: the aligned contiguous case must be a zero-copy view
    (the replace phase then costs nothing in the serving hot loop)."""

    def test_aligned_contiguous_2d_is_view(self, rng):
        x = rng.standard_normal((32, 4))
        xhat = reshape_input(x, 8)
        assert np.shares_memory(xhat, x)
        assert xhat.base is x

    def test_aligned_1d_is_view(self, rng):
        x = rng.standard_normal(16)
        assert np.shares_memory(reshape_input(x, 4), x)

    def test_view_ignores_out(self, rng):
        x = rng.standard_normal((32, 2))
        out = np.empty((4, 8, 2))
        xhat = reshape_input(x, 8, out=out)
        assert np.shares_memory(xhat, x)
        assert not np.shares_memory(xhat, out)

    def test_float32_aligned_is_view(self, rng):
        x = rng.standard_normal((24, 3)).astype(np.float32)
        assert np.shares_memory(reshape_input(x, 8), x)

    def test_unaligned_copies(self, rng):
        x = rng.standard_normal((30, 2))
        xhat = reshape_input(x, 8)
        assert not np.shares_memory(xhat, x)
        assert xhat.shape == (4, 8, 2)

    def test_non_contiguous_copies(self, rng):
        x = rng.standard_normal((4, 32)).T  # F-ordered view
        xhat = reshape_input(x, 8)
        assert not np.shares_memory(xhat, x)
        assert np.array_equal(xhat.reshape(32, 4), np.ascontiguousarray(x))


class TestReshapeInputOut:
    def test_out_receives_padded_copy(self, rng):
        x = rng.standard_normal((4, 30)).T  # non-contiguous -> copy path
        out = np.empty((4, 8, 4))
        got = reshape_input(x, 8, out=out)
        assert got is out
        flat = out.reshape(32, 4)
        assert np.array_equal(flat[:30], np.ascontiguousarray(x))
        assert np.array_equal(flat[30:], np.zeros((2, 4)))

    def test_out_shape_and_dtype_validated(self, rng):
        x = rng.standard_normal((4, 30)).T
        with pytest.raises(ValueError, match="shape"):
            reshape_input(x, 8, out=np.empty((3, 8, 4)))
        with pytest.raises(ValueError, match="dtype"):
            reshape_input(x, 8, out=np.empty((4, 8, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="contiguous"):
            reshape_input(x, 8, out=np.empty((4, 8, 8))[:, :, ::2])


class TestBuilderOut:
    @pytest.mark.parametrize("builder", ["dp", "gemm"])
    def test_out_matches_fresh_bitwise(self, rng, builder):
        xhat = reshape_input(rng.standard_normal((24, 5)), 4)
        fn = build_tables_dp if builder == "dp" else build_tables_gemm
        fresh = fn(xhat)
        out = np.empty((6, 16, 5))
        out[:] = np.nan  # every entry must be overwritten
        got = fn(xhat, out=out)
        assert got is out
        assert np.array_equal(out, fresh)

    def test_dp_nosym_out(self, rng):
        xhat = reshape_input(rng.standard_normal((16, 2)), 4)
        fresh = build_tables_dp(xhat, use_symmetry=False)
        out = np.empty((4, 16, 2))
        assert np.array_equal(
            build_tables_dp(xhat, use_symmetry=False, out=out), fresh
        )

    def test_out_validation(self, rng):
        xhat = reshape_input(rng.standard_normal((16, 2)), 4)
        with pytest.raises(ValueError, match="shape"):
            build_tables_dp(xhat, out=np.empty((4, 8, 2)))
        with pytest.raises(ValueError, match="dtype"):
            build_tables_gemm(
                xhat, out=np.empty((4, 16, 2), dtype=np.float32)
            )
