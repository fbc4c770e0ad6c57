"""Tests for the v3 whole-model artifact (repro.api.artifact +
core.serialize), including v1/v2 coexistence and corruption handling."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro

from repro.api import QuantConfig, load, quantize, save
from repro.core.serialize import (
    load_engine,
    load_model_artifact,
    save_engine,
    save_model_artifact,
)
from repro.core.kernel import BiQGemm
from repro.engine import QuantSpec
from repro.engine.compiled import CompiledKernelEngine
from repro.nn import QuantLinear, build_encoder


CFG = QuantConfig(bits=2, mu=4, overrides={"ffn.*": {"bits": 3}})


def _compiled_encoder(seed=0, batch_hint=1):
    enc = build_encoder("transformer-base", scale=16, layers=1, seed=seed)
    return quantize(enc, CFG).compile(batch_hint=batch_hint)


class TestV3RoundTrip:
    def test_encoder_outputs_byte_identical(self, rng, tmp_path):
        compiled = _compiled_encoder()
        x = rng.standard_normal((1, 4, 32))
        expected = compiled(x)
        path = tmp_path / "model.npz"
        save(compiled, path)
        reloaded = load(path)
        assert np.array_equal(reloaded(x), expected)

    def test_override_declaration_order_survives_reload(self, rng, tmp_path):
        """Overrides are order-sensitive ('later wins'); the manifest
        JSON round trip must not reorder them."""
        config = QuantConfig(
            bits=3,
            mu=4,
            overrides={"ffn.*": {"bits": 4}, "L0.*": {"bits": 2}},
        )
        assert config.spec_for("L0.ffn.ff1").bits == 2
        enc = build_encoder("transformer-base", scale=16, layers=1)
        compiled = quantize(enc, config).compile(batch_hint=1)
        save(compiled, tmp_path / "m.npz")
        reloaded = load(tmp_path / "m.npz")
        assert list(reloaded.config.overrides) == ["ffn.*", "L0.*"]
        assert reloaded.config.spec_for("L0.ffn.ff1").bits == 2
        assert reloaded.config == config

    def test_plans_and_config_survive(self, tmp_path):
        compiled = _compiled_encoder(batch_hint=8)
        save(compiled, tmp_path / "m.npz")
        reloaded = load(tmp_path / "m.npz")
        assert reloaded.plans == compiled.plans
        assert reloaded.config == compiled.config
        assert reloaded.batch_hint == 8

    def test_mixed_backend_model_round_trips(self, rng, tmp_path):
        """Every registered lossless backend payload in one artifact."""
        backends = ("biqgemm", "dense")
        layers = [
            QuantLinear(
                rng.standard_normal((6, 8)),
                rng.standard_normal(6),
                spec=QuantSpec(bits=2, mu=4),
            )
            for _ in backends
        ]
        config = QuantConfig(
            bits=2,
            mu=4,
            overrides={
                str(i): {"backend": backend}
                for i, backend in enumerate(backends)
            },
        )
        compiled = quantize(layers, config).compile(batch_hint=2)
        x = rng.standard_normal((3, 8))
        expected = [layer(x) for layer in compiled.model]
        save(compiled, tmp_path / "mixed.npz")
        reloaded = load(tmp_path / "mixed.npz")
        assert list(reloaded.plans.values()) == list(backends)
        for layer, want in zip(reloaded.model, expected):
            assert np.array_equal(layer(x), want)

    def test_lossy_backends_round_trip_when_named(self, rng, tmp_path):
        layers = [
            QuantLinear(
                rng.standard_normal((6, 16)),
                spec=QuantSpec(backend="int8"),
            ),
        ]
        compiled = quantize(layers, QuantConfig(bits=2)).compile()
        x = rng.standard_normal((2, 16))
        expected = [layer(x) for layer in compiled.model]
        save(compiled, tmp_path / "lossy.npz")
        reloaded = load(tmp_path / "lossy.npz")
        for layer, want in zip(reloaded.model, expected):
            assert np.array_equal(layer(x), want)

    def test_quantmodel_save_compiles_implicitly(self, rng, tmp_path):
        qm = quantize(
            [QuantLinear(rng.standard_normal((4, 6)), spec=QuantSpec(bits=1, mu=2))],
            QuantConfig(bits=1, mu=2),
        )
        save(qm, tmp_path / "qm.npz")
        assert load(tmp_path / "qm.npz").batch_hint == 1

    def test_no_float_weights_in_artifact(self, tmp_path):
        """Deployment invariant: only compiled state ships."""
        compiled = _compiled_encoder()
        save(compiled, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            names = set(data.files)
        assert not any(name.endswith(".weight") for name in names)
        manifest, _ = load_model_artifact(tmp_path / "m.npz")
        # GEMV regime: the LUT engine everywhere (ffn.ff1 fuses its
        # ReLU into the engine's epilogue).
        assert all(e["backend"] == "biqgemm" for e in manifest["layers"])

    def test_restored_layer_serves_only_its_backend(self, rng, tmp_path):
        compiled = _compiled_encoder()
        save(compiled, tmp_path / "m.npz")
        reloaded = load(tmp_path / "m.npz")
        layer = reloaded.named_layers()[0][1]
        # The biqgemm export carries no BCQ state: other backends can't
        # build.
        with pytest.raises(ValueError, match="serves only"):
            layer.pin_backend("dense")
            layer.engine_for(1)

    def test_mlp_round_trip(self, rng, tmp_path):
        from repro.train.mlp import MLPClassifier

        clf = MLPClassifier((6, 10, 3), seed=0)
        compiled = quantize(clf, QuantConfig(bits=3, mu=2)).compile()
        x = rng.standard_normal((5, 6))
        save(compiled, tmp_path / "mlp.npz")
        reloaded = load(tmp_path / "mlp.npz")
        assert np.array_equal(reloaded.model.predict(x), compiled.model.predict(x))

    def test_unregistered_structure_rejected_on_save(self, rng, tmp_path):
        from repro.nn import LSTMCell

        cell = LSTMCell(
            rng.standard_normal((8, 4)),
            rng.standard_normal((8, 2)),
            spec=QuantConfig(bits=1, mu=2),
        )
        compiled = quantize(cell, QuantConfig(bits=1, mu=2)).compile()
        with pytest.raises(TypeError, match="not registered"):
            save(compiled, tmp_path / "cell.npz")


class TestManifestAccess:
    def test_load_with_manifest_returns_both(self, tmp_path):
        from repro.api.artifact import load_with_manifest

        compiled = _compiled_encoder()
        path = tmp_path / "m.npz"
        save(compiled, path)
        loaded, manifest = load_with_manifest(path)
        assert manifest["repro_version"]
        assert manifest["batch_hint"] == compiled.batch_hint
        assert [e["path"] for e in manifest["layers"]] == [
            name for name, _ in compiled.named_layers()
        ]
        x = np.random.default_rng(0).standard_normal((1, 2, 32))
        assert np.array_equal(loaded(x), compiled(x))

    def test_manifest_only_peek(self, tmp_path):
        """core.serialize.load_model_manifest: metadata without payload."""
        from repro.core.serialize import load_model_manifest

        compiled = _compiled_encoder()
        path = tmp_path / "m.npz"
        save(compiled, path)
        manifest = load_model_manifest(path)
        assert manifest["structure"]["kind"] == "transformer_encoder"
        assert len(manifest["layers"]) == len(compiled.named_layers())

    def test_manifest_peek_rejects_engine_files(self, rng, tmp_path):
        from repro.core.serialize import load_model_manifest, save_engine
        from repro.nn.linear import QuantLinear

        layer = QuantLinear(
            rng.standard_normal((6, 8)),
            spec=QuantSpec(bits=2, mu=4, backend="biqgemm"),
        )
        path = tmp_path / "engine.npz"
        save_engine(layer.engine_for(1), path)
        with pytest.raises(ValueError, match="not a whole-model"):
            load_model_manifest(path)


class TestCorruptionAndFormats:
    def test_corrupted_manifest_rejected(self, tmp_path):
        """Satellite pin: a tampered manifest must fail loudly."""
        compiled = _compiled_encoder()
        path = tmp_path / "m.npz"
        save(compiled, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["manifest"] = np.frombuffer(
            b'{"definitely": "not a model"', dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="corrupted model manifest"):
            load(path)

    def test_manifest_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "m.npz"
        with pytest.raises(ValueError, match="missing field"):
            save_model_artifact(
                path, manifest={"config": {}, "layers": []}, arrays={}
            )

    def test_manifest_layer_entries_validated(self, tmp_path):
        with pytest.raises(ValueError, match="layer entry 0"):
            save_model_artifact(
                tmp_path / "m.npz",
                manifest={
                    "config": {},
                    "structure": {"kind": "layer_list"},
                    "batch_hint": 1,
                    "layers": [{"path": "0"}],
                },
                arrays={},
            )

    def test_missing_layer_payload_rejected(self, tmp_path):
        compiled = _compiled_encoder()
        path = tmp_path / "m.npz"
        save(compiled, path)
        with np.load(path) as data:
            arrays = {
                k: data[k] for k in data.files if not k.startswith("layer0.")
            }
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="no payload"):
            load(path)

    def test_unknown_structure_kind_rejected(self, tmp_path):
        compiled = _compiled_encoder()
        path = tmp_path / "m.npz"
        save(compiled, path)
        manifest, arrays = load_model_artifact(path)
        manifest["structure"]["kind"] = "hypercube"
        save_model_artifact(path, manifest=manifest, arrays=arrays)
        with pytest.raises(ValueError, match="unknown model structure"):
            load(path)

    def test_engine_loader_redirects_v3_files(self, tmp_path):
        compiled = _compiled_encoder()
        path = tmp_path / "m.npz"
        save(compiled, path)
        with pytest.raises(ValueError, match="repro.api.load"):
            load_engine(path)

    def test_model_loader_rejects_engine_files(self, rng, tmp_path):
        layer = QuantLinear(
            rng.standard_normal((4, 6)), spec=QuantSpec(bits=1, mu=2)
        )
        path = tmp_path / "engine.npz"
        save_engine(layer.engine_for(1), path)
        with pytest.raises(ValueError, match="not a whole-model"):
            load_model_artifact(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "nope.npz")


class TestOlderFormatsKeepWorking:
    """v3 must not regress the v1/v2 single-engine formats."""

    def test_v1_biqgemm_round_trip(self, rng, tmp_path):
        engine = BiQGemm.from_float(rng.standard_normal((6, 8)), bits=2, mu=4)
        engine.batch_invariant = True
        path = tmp_path / "v1.npz"
        save_engine(engine, path)  # BiQGemm -> historical v1 layout
        with np.load(path) as data:
            assert int(data["format_version"]) == 1
        x = rng.standard_normal((8, 3))
        assert np.array_equal(load_engine(path).matmul(x), engine.matmul(x))

    def test_v2_registry_round_trip(self, rng, tmp_path):
        layer = QuantLinear(
            rng.standard_normal((6, 8)),
            spec=QuantSpec(bits=2, mu=4, backend="dense"),
        )
        engine = layer.engine_for(1)
        path = tmp_path / "v2.npz"
        save_engine(engine, path)
        with np.load(path) as data:
            assert int(data["format_version"]) == 2
        x = rng.standard_normal((8, 3))
        assert np.array_equal(load_engine(path).matmul(x), engine.matmul(x))

    def test_v2_legacy_engine_kind_loads_onto_biqgemm(self, rng, tmp_path):
        # v2 files written while the native engine was called "compiled".
        layer = QuantLinear(
            rng.standard_normal((6, 8)),
            rng.standard_normal(6),
            spec=QuantSpec(bits=2, mu=4, fuse="relu"),
        )
        engine = layer.engine_for(1)
        path = tmp_path / "v2.npz"
        save_engine(engine, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        assert arrays["engine_kind"].item() == b"biqgemm"
        arrays["engine_kind"] = np.bytes_(b"compiled")
        np.savez_compressed(path, **arrays)
        restored = load_engine(path)
        assert isinstance(restored, CompiledKernelEngine)
        assert restored.activation == "relu"
        x = rng.standard_normal((8, 3))
        assert np.array_equal(restored.matmul(x), engine.matmul(x))


class TestLegacyManifests:
    """v3 artifacts saved by earlier versions.  From while the
    ``container``, ``unpack`` and ``xnor`` engines were registered:
    their ``a_bits`` spec field is ignored, and a layer pinned to a
    removed engine fails clearly.  From while the native engine was
    registered as ``compiled`` beside a numpy ``biqgemm`` engine: both
    names load onto the native ``biqgemm`` engine, bit-identically.
    From while that engine kept per-batch traces: their
    ``specialization`` entry is ignored.  From while specs chose a
    planner: their ``planner`` field is ignored."""

    def _resave(self, compiled, path, edit, edit_arrays=None):
        save(compiled, path)
        manifest, arrays = load_model_artifact(path)
        edit(manifest)
        if edit_arrays is not None:
            edit_arrays(arrays)
        save_model_artifact(path, manifest=manifest, arrays=arrays)

    @staticmethod
    def _name_lut_layers(manifest, backend):
        """Rename every LUT layer's engine as an older version wrote it."""
        for entry in manifest["layers"]:
            if entry["backend"] == "biqgemm":
                entry["backend"] = entry["planned_backend"] = backend
                entry["spec"]["backend"] = backend

    def test_compiled_manifest_with_fused_epilogue_loads(self, rng, tmp_path):
        # As the "compiled" engine wrote them: fused bias and ReLU in
        # the ffn.ff1 payloads, "compiled" in every LUT layer entry.
        compiled = _compiled_encoder()
        assert dict(compiled.named_layers())[
            "L0.ffn.ff1"
        ].fused_activation == "relu"
        xs = [rng.standard_normal((b, 4, 32)) for b in (1, 3)]
        expected = [compiled(x) for x in xs]
        path = tmp_path / "compiled.npz"
        self._resave(
            compiled, path, lambda m: self._name_lut_layers(m, "compiled")
        )
        manifest, _ = load_model_artifact(path)
        assert {e["backend"] for e in manifest["layers"]} == {"compiled"}
        reloaded = load(path)
        assert reloaded.plans == compiled.plans
        assert set(reloaded.plans.values()) == {"biqgemm"}
        layer = dict(reloaded.named_layers())["L0.ffn.ff1"]
        assert isinstance(layer.engine_for(1), CompiledKernelEngine)
        assert layer.fused_activation == "relu"
        for x, want in zip(xs, expected):
            assert np.array_equal(reloaded(x), want)

    def test_numpy_biqgemm_manifest_loads_onto_native_engine(
        self, rng, tmp_path
    ):
        # As the numpy biqgemm engine wrote them: keys, alphas, mu and n
        # per layer, the bias only as the layer's __bias__, no fusion.
        layers = [
            QuantLinear(
                rng.standard_normal((6, 8)),
                rng.standard_normal(6),
                spec=QuantSpec(bits=2, mu=4),
            )
            for _ in range(2)
        ]
        config = QuantConfig(bits=2, mu=4, backend="biqgemm")
        compiled = quantize(layers, config).compile(batch_hint=1)
        x = rng.standard_normal((3, 8))
        expected = [layer(x) for layer in compiled.model]

        def numpy_payloads(arrays):
            for i in range(len(layers)):
                assert f"layer{i}.bias" in arrays
                del arrays[f"layer{i}.bias"]
                assert f"layer{i}.__bias__" in arrays

        path = tmp_path / "numpy.npz"
        self._resave(compiled, path, lambda m: None, numpy_payloads)
        reloaded = load(path)
        assert set(reloaded.plans.values()) == {"biqgemm"}
        for layer, want in zip(reloaded.model, expected):
            engine = layer.engine_for(1)
            assert isinstance(engine, CompiledKernelEngine)
            assert not engine.fused_epilogue  # the layer adds the bias
            assert np.array_equal(layer(x), want)

    def test_a_bits_is_ignored_and_outputs_are_bit_identical(
        self, rng, tmp_path
    ):
        compiled = _compiled_encoder()
        x = rng.standard_normal((1, 4, 32))
        expected = compiled(x)

        def add_a_bits(manifest):
            manifest["config"]["a_bits"] = 1
            manifest["config"]["overrides"]["ffn.*"]["a_bits"] = 1
            for entry in manifest["layers"]:
                entry["spec"]["a_bits"] = 1

        path = tmp_path / "legacy.npz"
        self._resave(compiled, path, add_a_bits)
        reloaded = load(path)
        assert reloaded.config == compiled.config
        assert reloaded.plans == compiled.plans
        assert np.array_equal(reloaded(x), expected)

    def test_planner_is_ignored_and_outputs_are_bit_identical(
        self, rng, tmp_path
    ):
        compiled = _compiled_encoder()
        xs = [rng.standard_normal((b, 4, 32)) for b in (1, 3)]
        expected = [compiled(x) for x in xs]

        def add_planner(manifest):
            manifest["config"]["planner"] = "model"
            manifest["config"]["overrides"]["ffn.*"]["planner"] = "model"
            for entry in manifest["layers"]:
                entry["spec"]["planner"] = "model"

        path = tmp_path / "legacy.npz"
        self._resave(compiled, path, add_planner)
        manifest, _ = load_model_artifact(path)
        assert manifest["config"]["planner"] == "model"
        reloaded = load(path)
        assert reloaded.config == compiled.config
        assert reloaded.plans == compiled.plans
        for x, want in zip(xs, expected):
            assert reloaded(x).tobytes() == want.tobytes()

    def test_trace_specialization_entry_is_ignored(self, rng, tmp_path):
        # Artifacts saved while the native engine kept resident
        # per-batch traces record each of its layers' trace plan.
        compiled = _compiled_encoder()
        assert "biqgemm" in set(compiled.plans.values())
        xs = [rng.standard_normal((b, 4, 32)) for b in (1, 2)]
        expected = [compiled(x) for x in xs]
        path = tmp_path / "fresh.npz"
        save(compiled, path)
        fresh, _ = load_model_artifact(path)
        assert all("specialization" not in e for e in fresh["layers"])

        def add_specialization(manifest):
            self._name_lut_layers(manifest, "compiled")
            for entry in manifest["layers"]:
                if entry["backend"] == "compiled":
                    entry["specialization"] = {
                        "batches": [4, 8],
                        "dtypes": ["<f4", "<f8"],
                    }

        path = tmp_path / "traced.npz"
        self._resave(compiled, path, add_specialization)
        reloaded = load(path)
        assert reloaded.plans == compiled.plans
        for x, want in zip(xs, expected):
            assert np.array_equal(reloaded(x), want)

    def test_other_unknown_spec_fields_still_fail(self, tmp_path):
        def add_to_layer(manifest):
            manifest["layers"][0]["spec"]["w_bits"] = 3

        def add_to_config(manifest):
            manifest["config"]["w_bits"] = 3

        for edit, message in (
            (add_to_layer, "unknown spec field"),
            (add_to_config, "unknown QuantConfig field"),
        ):
            path = tmp_path / f"{edit.__name__}.npz"
            self._resave(_compiled_encoder(), path, edit)
            with pytest.raises(ValueError, match=message):
                load(path)

    @pytest.mark.parametrize("backend", ["container", "unpack", "xnor"])
    def test_removed_backend_raises_naming_it(self, rng, tmp_path, backend):
        layer = QuantLinear(
            rng.standard_normal((6, 8)),
            spec=QuantSpec(bits=2, mu=4, backend="dense"),
        )
        config = QuantConfig(bits=2, mu=4, backend="dense")
        compiled = quantize([layer], config).compile()

        def pin_removed(manifest):
            entry = manifest["layers"][0]
            entry["backend"] = entry["planned_backend"] = backend
            entry["spec"]["backend"] = backend
            entry["spec"]["a_bits"] = 1

        path = tmp_path / "removed.npz"
        self._resave(compiled, path, pin_removed)
        with pytest.raises(ValueError) as info:
            load(path)
        message = str(info.value)
        assert repr(backend) in message
        assert "['biqgemm', 'dense', 'int8']" in message
        assert "corrupted" not in message
        # A new spec naming a removed engine fails too.  Loaders map the
        # renamed "compiled" onto "biqgemm"; a new spec naming it fails
        # naming its replacement.
        with pytest.raises(ValueError, match=repr(backend)):
            QuantConfig(bits=2, mu=4, backend=backend)
        with pytest.raises(ValueError, match="'compiled'.*'biqgemm'"):
            QuantSpec(backend="compiled")
        with pytest.raises(ValueError, match="'biqgemm'"):
            QuantConfig(overrides={"ffn.*": {"backend": "compiled"}})


_PRODUCER = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    from repro.api import QuantConfig, quantize, save
    from repro.nn.model_zoo import build_encoder

    out = sys.argv[1]
    config = QuantConfig(bits=3, mu=8, overrides={"ffn.*": {"bits": 2}})
    encoder = build_encoder("transformer-base", scale=16, layers=2, seed=0)
    compiled = quantize(encoder, config).compile(batch_hint=1)
    x = np.random.default_rng(7).standard_normal((1, 4, 32))
    np.save(out + "/input.npy", x)
    np.save(out + "/expected.npy", compiled(x))
    save(compiled, out + "/model.npz")
    print(json.dumps(compiled.plans))
    """
)

_CONSUMER = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    from repro.api import load

    out = sys.argv[1]
    compiled = load(out + "/model.npz")
    assert compiled.config.overrides == {"ffn.*": {"bits": 2}}
    x = np.load(out + "/input.npy")
    expected = np.load(out + "/expected.npy")
    got = compiled.warmup()(x)
    assert got.dtype == expected.dtype, (got.dtype, expected.dtype)
    assert got.tobytes() == expected.tobytes(), "outputs differ after reload"
    print(json.dumps(compiled.plans))
    """
)


def _run_python(script: str, *args: str) -> str:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.smoke
def test_artifact_round_trip_across_processes(tmp_path):
    """One process quantizes, compiles and saves an encoder; a second
    process loads it and serves byte-identical outputs."""
    produced = json.loads(_run_python(_PRODUCER, str(tmp_path)))
    consumed = json.loads(_run_python(_CONSUMER, str(tmp_path)))
    assert consumed == produced
    assert set(produced.values()) <= {"biqgemm", "dense"}
    assert any(name.endswith("ffn.ff1") for name in produced)
