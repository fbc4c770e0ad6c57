"""Fusion planning tests (repro.api.model / repro.nn.linear).

``compile()`` discovers layers whose following activation is fusible
and, where such a layer is planned onto the compiled engine, pins
``spec.fuse``.  These tests pin the contract around that pass: site
discovery, fused/unfused bit-identity at the model level, and
fuse-aware engine caching in the layer.
"""

import numpy as np
import pytest

from repro.api import QuantConfig, quantize
from repro.api.model import QuantMLP, _fusion_sites
from repro.nn.linear import Linear
from repro.nn.model_zoo import build_encoder


def _mlp_layers(rng, dims=(64, 96, 96, 32)):
    return [
        Linear(
            rng.standard_normal((dims[i + 1], dims[i])) * 0.1,
            rng.standard_normal(dims[i + 1]) * 0.05,
        )
        for i in range(len(dims) - 1)
    ]


class TestFusionSites:
    def test_mlp_hidden_layers_fuse_relu(self):
        rng = np.random.default_rng(0)
        qm = quantize(QuantMLP(_mlp_layers(rng)), QuantConfig(bits=2, mu=4))
        sites = _fusion_sites(qm.model, qm.named_layers())
        assert sites == {"fc.0": "relu", "fc.1": "relu"}  # not the head

    def test_encoder_ffn_first_projection_fuses_relu(self):
        encoder = build_encoder("transformer-base", scale=16, layers=2, seed=0)
        qm = quantize(encoder, QuantConfig(bits=2, mu=4))
        sites = _fusion_sites(qm.model, qm.named_layers())
        assert sites == {"L0.ffn.ff1": "relu", "L1.ffn.ff1": "relu"}

    def test_pins_are_consistent_with_sites(self):
        rng = np.random.default_rng(1)
        qm = quantize(QuantMLP(_mlp_layers(rng)), QuantConfig(bits=2, mu=4))
        sites = _fusion_sites(qm.model, qm.named_layers())
        compiled = qm.compile(batch_hint=1)
        for name, layer in compiled.named_layers():
            if compiled.plans[name] == "compiled" and name in sites:
                assert layer.spec.fuse == sites[name]
                assert layer.fused_activation == sites[name]
            else:
                assert layer.spec.fuse is None
                assert layer.fused_activation is None

    def test_compiled_wins_a_gemv_fusion_site(self):
        # The planner must actually take the fused engine somewhere in
        # its home regime: 1-bit weights, decode batch.
        rng = np.random.default_rng(2)
        qm = quantize(
            QuantMLP(_mlp_layers(rng, dims=(1024, 1024, 1024, 64))),
            QuantConfig(bits=1, mu=8),
        )
        compiled = qm.compile(batch_hint=1)
        assert compiled.plans["fc.0"] == "compiled"
        assert qm.layer("fc.0").spec.fuse == "relu"


class TestFusedForwardIdentity:
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_fused_model_matches_all_biqgemm_reference(self, batch):
        # Same float weights, two quantized models: one compiled with
        # fusion planning, one pinned all-biqgemm (the batch-invariant
        # unfused reference).  Outputs must agree to the bit.
        rng = np.random.default_rng(3)
        layers = _mlp_layers(rng, dims=(1024, 1024, 1024, 64))
        reference_layers = [
            Linear(l.weight.copy(), l.bias.copy()) for l in layers
        ]
        config = QuantConfig(bits=1, mu=8)
        fused = quantize(QuantMLP(layers), config).compile(batch_hint=1)
        assert "compiled" in set(fused.plans.values())
        reference = quantize(QuantMLP(reference_layers), config)
        for _, layer in reference.named_layers():
            layer.pin_backend("biqgemm", batch_hint=1)
        x = rng.standard_normal((batch, 1024))
        assert np.array_equal(fused(x), reference(x))


class TestLayerFuseCache:
    def _fused_layer(self):
        rng = np.random.default_rng(4)
        qm = quantize(
            QuantMLP(_mlp_layers(rng, dims=(1024, 1024, 1024, 64))),
            QuantConfig(bits=1, mu=8),
        )
        qm.compile(batch_hint=1)
        layer = qm.layer("fc.0")
        assert layer.fused_activation == "relu"
        return rng, layer

    def test_repin_without_fuse_keeps_it(self):
        _, layer = self._fused_layer()
        layer.pin_backend("compiled", batch_hint=2)
        assert layer.spec.fuse == "relu"
        assert layer.fused_activation == "relu"

    def test_repin_with_fuse_none_evicts_fused_engine(self):
        rng, layer = self._fused_layer()
        x = rng.standard_normal((2, 1024))
        fused_out = layer(x)
        layer.pin_backend("compiled", batch_hint=2, fuse=None)
        assert layer.fused_activation is None
        engine = layer.engine_for(2)
        assert engine.activation is None  # not the stale fused engine
        unfused = layer(x)
        # The engine no longer applies relu; the unfused pre-activation
        # must re-activate to the fused bits.
        assert np.array_equal(np.maximum(unfused, 0), fused_out)
