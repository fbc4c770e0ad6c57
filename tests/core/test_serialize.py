"""Unit tests for engine serialization (repro.core.serialize)."""

import numpy as np
import pytest

from repro.core.kernel import BiQGemm
from repro.core.serialize import load_engine, save_engine
from tests.conftest import random_binary


@pytest.fixture()
def engine(rng):
    binary = random_binary(rng, (2, 12, 30))
    alphas = rng.uniform(0.2, 1.5, size=(2, 12))
    return BiQGemm.from_binary(binary, alphas=alphas, mu=4)


class TestRoundTrip:
    def test_identical_results(self, engine, rng, tmp_path):
        path = tmp_path / "engine.npz"
        save_engine(engine, path)
        loaded = load_engine(path)
        x = rng.standard_normal((30, 5))
        assert np.array_equal(loaded.matmul(x), engine.matmul(x))

    def test_metadata_preserved(self, engine, tmp_path):
        path = tmp_path / "engine.npz"
        save_engine(engine, path)
        loaded = load_engine(path)
        assert loaded.shape == engine.shape
        assert loaded.bits == engine.bits
        assert loaded.mu == engine.mu
        assert np.array_equal(loaded.alphas, engine.alphas)

    def test_implicit_npz_suffix(self, engine, tmp_path):
        # np.savez appends .npz; load must find it either way.
        path = tmp_path / "engine"
        save_engine(engine, path)
        loaded = load_engine(path)
        assert loaded.shape == engine.shape

    def test_file_smaller_than_fp32_weights(self, rng, tmp_path):
        engine = BiQGemm.from_binary(random_binary(rng, (256, 512)), mu=8)
        path = tmp_path / "big.npz"
        save_engine(engine, path)
        fp32 = 256 * 512 * 4
        assert path.stat().st_size < fp32 / 8


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_engine(tmp_path / "nope.npz")

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not a serialized engine"):
            load_engine(path)

    def test_bad_version_rejected(self, engine, tmp_path):
        path = tmp_path / "versioned.npz"
        np.savez(
            path,
            format_version=np.int64(99),
            keys=engine.key_matrix.keys,
            alphas=engine.alphas,
            mu=np.int64(engine.mu),
            n=np.int64(engine.shape[1]),
        )
        with pytest.raises(ValueError, match="version"):
            load_engine(path)

    def test_corrupt_keys_rejected(self, engine, tmp_path):
        # Keys exceeding 2^mu must be caught by KeyMatrix validation.
        path = tmp_path / "corrupt.npz"
        bad_keys = engine.key_matrix.keys.copy()
        bad_keys[0, 0, 0] = 255  # mu=4 -> max valid is 15
        np.savez(
            path,
            format_version=np.int64(1),
            keys=bad_keys,
            alphas=engine.alphas,
            mu=np.int64(engine.mu),
            n=np.int64(engine.shape[1]),
        )
        with pytest.raises(ValueError, match="2\\*\\*mu"):
            load_engine(path)

    def test_save_rejects_non_engine(self, tmp_path):
        with pytest.raises(TypeError, match="not a registered engine"):
            save_engine(np.zeros(3), tmp_path / "x.npz")


class TestRegistryRoundTrip:
    """Format v2: any registered engine round-trips, not just BiQGemm."""

    @pytest.mark.parametrize("backend", ["dense", "int8"])
    def test_identical_results(self, rng, tmp_path, backend):
        from repro.engine import EngineBuildRequest, QuantSpec, build_engine

        spec = QuantSpec(bits=2, mu=4, backend=backend)
        request = EngineBuildRequest(
            spec=spec, weight=rng.standard_normal((12, 30))
        )
        engine = build_engine(backend, request)
        path = tmp_path / f"{backend}.npz"
        save_engine(engine, path)
        loaded = load_engine(path)
        assert type(loaded) is type(engine)
        assert loaded.shape == engine.shape
        assert loaded.weight_nbytes == engine.weight_nbytes
        x = rng.standard_normal((30, 5))
        assert np.allclose(loaded.matmul(x), engine.matmul(x), atol=1e-12)

    def test_biqgemm_still_writes_v1(self, engine, tmp_path):
        # BiQGEMM artifacts stay readable by earlier releases.
        path = tmp_path / "engine.npz"
        save_engine(engine, path)
        with np.load(path) as data:
            assert int(data["format_version"]) == 1

    def test_int8_artifact_ships_codes_not_float_weights(self, rng, tmp_path):
        # Paper footnote 3: compiled state ships, never float weights.
        from repro.engine import EngineBuildRequest, QuantSpec, build_engine

        request = EngineBuildRequest(
            spec=QuantSpec(backend="int8"),
            weight=rng.standard_normal((64, 64)),
        )
        engine = build_engine("int8", request)
        path = tmp_path / "int8.npz"
        save_engine(engine, path)
        with np.load(path) as data:
            assert "weight" not in data.files
            assert data["q"].dtype == np.int32
        # int8 codes compress far below the 32 KB fp32 weight.
        assert path.stat().st_size < 64 * 64 * 4 / 2

    def test_tampered_int8_artifact_fails_at_load(self, rng, tmp_path):
        from repro.engine import EngineBuildRequest, QuantSpec, build_engine

        request = EngineBuildRequest(
            spec=QuantSpec(backend="int8"),
            weight=rng.standard_normal((8, 16)),
        )
        engine = build_engine("int8", request)
        path = tmp_path / "int8.npz"
        save_engine(engine, path)
        with np.load(path) as data:
            state = {k: data[k] for k in data.files}
        state["scale"] = np.ones(3)  # truncated grid
        np.savez(path, **state)
        with pytest.raises(ValueError, match="scale"):
            load_engine(path)
