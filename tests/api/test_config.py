"""Unit tests for QuantConfig (repro.api.config)."""

import pytest

from repro.api import QuantConfig
from repro.engine import QuantSpec


class TestDefaults:
    def test_base_spec_mirrors_quantspec_defaults(self):
        assert QuantConfig().base_spec() == QuantSpec(backend="auto")

    def test_field_defaults_flow_into_specs(self):
        cfg = QuantConfig(bits=2, mu=4, method="alternating",
                          machine="mobile", batch_hint=8)
        spec = cfg.spec_for("anything")
        assert spec.bits == 2
        assert spec.mu == 4
        assert spec.method == "alternating"
        assert spec.machine == "mobile"
        assert spec.batch_hint == 8

    def test_default_backend_is_auto(self):
        # The model-level API plans by default; pinning is an override.
        assert QuantConfig().backend == "auto"


class TestOverrides:
    def test_full_path_match(self):
        cfg = QuantConfig(bits=3, overrides={"L0.attn.q": {"bits": 1}})
        assert cfg.spec_for("L0.attn.q").bits == 1
        assert cfg.spec_for("L0.attn.k").bits == 3

    def test_suffix_match(self):
        # "ffn.*" selects feed-forward blocks at any stack depth.
        cfg = QuantConfig(bits=3, overrides={"ffn.*": {"bits": 4}})
        assert cfg.spec_for("L0.ffn.ff1").bits == 4
        assert cfg.spec_for("L7.ffn.ff2").bits == 4
        assert cfg.spec_for("L0.attn.q").bits == 3

    def test_glob_over_layers(self):
        cfg = QuantConfig(overrides={"L*.attn.*": {"backend": "dense"}})
        assert cfg.spec_for("L3.attn.o").backend == "dense"
        assert cfg.spec_for("L3.ffn.ff1").backend == "auto"

    def test_later_declarations_win_fieldwise(self):
        cfg = QuantConfig(
            bits=3,
            overrides={
                "L0.*": {"bits": 2, "mu": 4},
                "L0.ffn.*": {"bits": 4},
            },
        )
        spec = cfg.spec_for("L0.ffn.ff1")
        assert spec.bits == 4      # later pattern wins
        assert spec.mu == 4        # earlier field survives

    def test_mixed_bitwidth_per_layer(self):
        cfg = QuantConfig(
            bits=3,
            overrides={"ffn.*": {"bits": 4}, "generator": {"bits": 2}},
        )
        bits = {
            name: cfg.spec_for(name).bits
            for name in ("enc0.attn.q", "enc0.ffn.ff1", "generator")
        }
        assert bits == {"enc0.attn.q": 3, "enc0.ffn.ff1": 4, "generator": 2}

    def test_matching_patterns_reported_in_order(self):
        cfg = QuantConfig(overrides={"a.*": {"bits": 1}, "*.b": {"mu": 2}})
        assert cfg.matching_patterns("a.b") == ("a.*", "*.b")


class TestValidation:
    def test_unknown_override_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            QuantConfig(overrides={"ffn.*": {"bitz": 4}})

    def test_invalid_override_value_rejected_eagerly(self):
        with pytest.raises(ValueError, match="invalid spec"):
            QuantConfig(overrides={"ffn.*": {"backend": "magic"}})

    def test_bad_machine_rejected(self):
        with pytest.raises(ValueError, match="machine"):
            QuantConfig(machine="cray")

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            QuantConfig(overrides={"": {"bits": 2}})

    def test_non_mapping_override_rejected(self):
        with pytest.raises(TypeError, match="mapping"):
            QuantConfig(overrides={"ffn.*": 4})


class TestConversion:
    def test_dict_round_trip(self):
        cfg = QuantConfig(
            bits=2, mu=4, machine="v100",
            overrides={"ffn.*": {"bits": 3}},
        )
        assert QuantConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_jsonable(self):
        import json

        blob = json.dumps(QuantConfig(overrides={"a": {"bits": 1}}).to_dict())
        assert "overrides" in blob

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown QuantConfig field"):
            QuantConfig.from_dict({"bits": 3, "rounds": 7})

    def test_from_spec_round_trip(self):
        spec = QuantSpec(bits=2, mu=4, backend="dense", batch_hint=32)
        assert QuantConfig.from_spec(spec).base_spec() == spec

    def test_replace(self):
        cfg = QuantConfig(bits=3).replace(bits=2)
        assert cfg.bits == 2 and cfg.mu == 8
