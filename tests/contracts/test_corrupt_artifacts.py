"""Contract: a damaged artifact fails with ``ValueError`` or loads intact.

A saved 16-32-8 BCQ MLP (``.npz``, a few KB) is cut at a generated
length or has one generated bit flipped.  Loading the damaged file
through each reader -- :func:`repro.api.load` (which runs
:func:`~repro.core.serialize.load_model_artifact`),
:func:`~repro.core.serialize.load_model_manifest` and, on a saved
single-layer engine, :func:`~repro.core.serialize.load_engine` -- must
either raise ``ValueError`` (naming the file, from the
:mod:`repro.core.serialize` readers), or succeed and serve outputs
byte-equal to the intact file's.  Most damage trips the zip
container's checks or its CRC; flips the container does not cover
(header fields it ignores) load the same state.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.bench.registry import compiled_mlp
from repro.core.serialize import (
    load_engine,
    load_model_artifact,
    load_model_manifest,
    save_engine,
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The intact files, their bytes, an input and the intact outputs."""
    root = tmp_path_factory.mktemp("artifacts")
    compiled, _ = compiled_mlp((16, 32, 8))
    model_path = root / "model.npz"
    api.save(compiled, model_path)
    engine = compiled.model.fc[0].engine_for()
    engine_path = root / "engine.npz"
    save_engine(engine, engine_path)
    x = np.random.default_rng(1).standard_normal((3, 16))
    return {
        "model": model_path.read_bytes(),
        "engine": engine_path.read_bytes(),
        "manifest": load_model_manifest(model_path),
        "x": x,
        "model_out": compiled(x).tobytes(),
        "engine_out": engine.matmul(x.T).tobytes(),
        "damaged": root / "damaged.npz",
    }


def _damage(data, blob: bytes) -> bytes:
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    damaged = bytearray(blob)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


def _load_or_value_error(load, path, *, names_path=True):
    """``load(path)``, or None when it raised a ValueError (naming
    *path* when *names_path*)."""
    try:
        return load(path)
    except ValueError as exc:
        assert not names_path or str(path) in str(exc), exc
        return None


SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


@SETTINGS
@given(data=st.data())
def test_damaged_model_artifact_raises_value_error_or_loads_intact(
    saved, data
):
    path = saved["damaged"]
    path.write_bytes(_damage(data, saved["model"]))
    manifest = _load_or_value_error(load_model_manifest, path)
    if manifest is not None:
        assert manifest == saved["manifest"]
    _load_or_value_error(load_model_artifact, path)
    model = _load_or_value_error(api.load, path, names_path=False)
    if model is not None:
        assert model(saved["x"]).tobytes() == saved["model_out"]


@SETTINGS
@given(data=st.data())
def test_damaged_engine_file_raises_value_error_or_loads_intact(saved, data):
    path = saved["damaged"]
    path.write_bytes(_damage(data, saved["engine"]))
    engine = _load_or_value_error(load_engine, path)
    if engine is not None:
        assert engine.matmul(saved["x"].T).tobytes() == saved["engine_out"]
