"""Tests for repro.api.quantize: traversal, naming, adapters, builders."""

import numpy as np
import pytest

from repro.api import QuantConfig, QuantMLP, QuantModel, quantize
from repro.engine import QuantSpec
from repro.nn import (
    LSTMCell,
    Linear,
    MultiHeadAttention,
    QuantLinear,
    Seq2SeqTransformer,
    TransformerConfig,
    build_encoder,
)
from repro.nn.model_zoo import model_gemm_shapes


class TestNaming:
    def test_encoder_paths_match_model_zoo_convention(self, rng):
        qm = quantize(
            build_encoder("transformer-base", scale=16, layers=2),
            QuantConfig(bits=2, mu=4),
        )
        names = [name for name, _ in qm.named_layers()]
        assert names[:6] == [
            "L0.attn.q",
            "L0.attn.k",
            "L0.attn.v",
            "L0.attn.o",
            "L0.ffn.ff1",
            "L0.ffn.ff2",
        ]
        # Same dotted convention as the planner sweep's shape names.
        zoo = [n for n, _, _ in model_gemm_shapes("transformer-base")]
        assert set(names) <= set(zoo)

    def test_seq2seq_paths(self, rng):
        model = Seq2SeqTransformer(
            TransformerConfig(dim=16, heads=2, ff_dim=32, layers=1),
            vocab_size=11,
            rng=rng,
        )
        qm = quantize(model, QuantConfig(bits=1, mu=2))
        names = [name for name, _ in qm.named_layers()]
        assert "enc0.attn.q" in names
        assert "dec0.ffn.ff2" in names
        assert "generator" in names
        # Decoder layers carry self- and cross-attention blocks.
        assert "dec0.self_attn.q" in names and "dec0.cross_attn.q" in names

    def test_layer_list_paths(self, rng):
        layers = [Linear(rng.standard_normal((4, 6))) for _ in range(3)]
        qm = quantize(layers, QuantConfig(bits=1, mu=2))
        assert [name for name, _ in qm.named_layers()] == ["0", "1", "2"]

    def test_layer_lookup(self, rng):
        qm = quantize(
            [Linear(rng.standard_normal((4, 6)))], QuantConfig(bits=1, mu=2)
        )
        assert qm.layer("0").shape == (4, 6)
        with pytest.raises(KeyError, match="no layer"):
            qm.layer("7")


class TestQuantizeSemantics:
    def test_float_layers_become_quantized(self, rng):
        enc = build_encoder("transformer-base", scale=16, layers=1)
        assert isinstance(enc.layers[0].ff1, Linear)
        quantize(enc, QuantConfig(bits=2, mu=4))
        assert isinstance(enc.layers[0].ff1, QuantLinear)

    def test_overrides_reach_their_layers(self, rng):
        qm = quantize(
            build_encoder("transformer-base", scale=16, layers=1),
            QuantConfig(bits=3, mu=4, overrides={"ffn.*": {"bits": 1}}),
        )
        assert qm.layer("L0.attn.q").spec.bits == 3
        assert qm.layer("L0.ffn.ff1").spec.bits == 1
        assert qm.layer("L0.ffn.ff1").bcq.bits == 1

    def test_bias_survives_quantization(self, rng):
        bias = rng.standard_normal(4)
        qm = quantize(
            [Linear(rng.standard_normal((4, 6)), bias)],
            QuantConfig(bits=8, mu=2, backend="dense"),
        )
        x = rng.standard_normal((2, 6))
        layer = qm.layer("0")
        assert np.allclose(layer(x), x @ layer.dequantized().T + bias)

    def test_output_matches_spec_threading(self, rng):
        """quantize(float model) == building the model quantized."""
        spec = QuantSpec(bits=2, mu=4, backend="biqgemm")
        direct = build_encoder(
            "transformer-base", scale=16, layers=1, seed=3, spec=spec
        )
        lifted = build_encoder("transformer-base", scale=16, layers=1, seed=3)
        quantize(lifted, QuantConfig.from_spec(spec))
        x = rng.standard_normal((1, 3, 32))
        assert np.allclose(direct(x), lifted(x))

    def test_spec_argument_lifted_to_config(self, rng):
        qm = quantize(
            [Linear(rng.standard_normal((4, 6)))],
            QuantSpec(bits=2, mu=4),
        )
        assert qm.config.bits == 2

    def test_kwargs_build_a_config(self, rng):
        qm = quantize([Linear(rng.standard_normal((4, 6)))], bits=1, mu=2)
        assert qm.config == QuantConfig(bits=1, mu=2)

    def test_requantized_model_shares_bcq_state(self, rng):
        """Re-quantizing an already-quantized model must not re-solve."""
        enc = build_encoder(
            "transformer-base", scale=16, layers=1,
            spec=QuantSpec(bits=2, mu=4),
        )
        before = enc.layers[0].ff1.bcq
        qm = quantize(enc, QuantConfig(bits=2, mu=4, backend="dense"))
        after = qm.layer("L0.ffn.ff1").bcq
        assert after is before
        assert qm.layer("L0.ffn.ff1").spec.backend == "dense"

    def test_requantize_at_other_bits_refused(self, rng):
        enc = build_encoder(
            "transformer-base", scale=16, layers=1,
            spec=QuantSpec(bits=2, mu=4),
        )
        with pytest.raises(ValueError, match="already quantized"):
            quantize(enc, QuantConfig(bits=3, mu=4))

    def test_model_without_linears_rejected(self):
        with pytest.raises(ValueError, match="no quantizable"):
            quantize(object(), QuantConfig())


class TestMLPAdapter:
    def test_classifier_is_adapted_and_serves(self, rng):
        from repro.train.mlp import MLPClassifier

        clf = MLPClassifier((6, 10, 3), seed=0)
        x = rng.standard_normal((5, 6))
        float_logits = clf.forward(x)
        qm = quantize(clf, QuantConfig(bits=8, mu=2, backend="dense"))
        assert isinstance(qm.model, QuantMLP)
        assert [n for n, _ in qm.named_layers()] == ["fc.0", "fc.1"]
        assert np.allclose(qm(x), float_logits, atol=0.2)
        assert qm.model.dims == (6, 10, 3)

    def test_qat_exports_into_the_api(self):
        from repro.train.data import make_teacher_task
        from repro.train.qat import train_qat_quantized

        task = make_teacher_task()
        qm, acc = train_qat_quantized(
            task, bits=3, epochs=2, finetune_epochs=1
        )
        assert isinstance(qm, QuantModel)
        assert qm.config.bits == 3
        compiled = qm.compile(batch_hint=1)
        preds = compiled.model.predict(task.x_test[:8])
        assert preds.shape == (8,)
        assert 0.0 <= acc <= 1.0

    def test_qat_config_mismatch_refused(self):
        from repro.train.data import make_teacher_task
        from repro.train.qat import train_qat_quantized

        with pytest.raises(ValueError, match="disagrees"):
            train_qat_quantized(
                make_teacher_task(), bits=3, config=QuantConfig(bits=2)
            )


class TestBuildersAcceptConfig:
    def test_encoder_builder_applies_overrides_by_path(self, rng):
        cfg = QuantConfig(bits=3, mu=4, overrides={"ffn.*": {"bits": 1}})
        enc = build_encoder("transformer-base", scale=16, layers=1, spec=cfg)
        assert enc.layers[0].ff1.spec.bits == 1
        assert enc.layers[0].attn.q_proj.spec.bits == 3

    def test_attention_accepts_config(self, rng):
        w = rng.standard_normal((8, 8))
        mha = MultiHeadAttention(
            w, w, w, w, heads=2,
            spec=QuantConfig(bits=2, mu=2, overrides={"o": {"bits": 1}}),
        )
        assert mha.q_proj.spec.bits == 2
        assert mha.o_proj.spec.bits == 1

    def test_lstm_cell_accepts_config(self, rng):
        cell = LSTMCell(
            rng.standard_normal((8, 4)),
            rng.standard_normal((8, 2)),
            spec=QuantConfig(bits=2, mu=2, overrides={"hh": {"bits": 1}}),
        )
        assert cell.ih.spec.bits == 2
        assert cell.hh.spec.bits == 1
        h, c = cell(rng.standard_normal((3, 4)), cell.zero_state(3))
        assert h.shape == (3, 2) and c.shape == (3, 2)

    def test_conv_accepts_config(self, rng):
        from repro.nn import QuantConv2d

        conv = QuantConv2d(
            rng.standard_normal((4, 3, 3, 3)),
            spec=QuantConfig(bits=2, mu=4),
        )
        out = conv(rng.standard_normal((1, 3, 6, 6)))
        assert out.shape == (1, 4, 4, 4)

    def test_bad_spec_type_rejected(self, rng):
        with pytest.raises(TypeError, match="QuantSpec or QuantConfig"):
            build_encoder("transformer-base", scale=16, layers=1, spec=3)


class TestLegacyKwargs:
    """The bare-kwarg spelling (``QuantLinear(w, bits=3)``) is gone:
    layers take ``spec=QuantSpec | QuantConfig | None`` only."""

    def test_quantlinear_bare_kwargs_rejected(self, rng):
        with pytest.raises(TypeError, match="unexpected keyword"):
            QuantLinear(rng.standard_normal((6, 9)), bits=3, backend="auto")

    def test_kwargs_and_spec_together_rejected(self, rng):
        with pytest.raises(TypeError, match="unexpected keyword"):
            QuantLinear(
                rng.standard_normal((4, 4)), bits=2, spec=QuantSpec()
            )

    def test_unknown_kwarg_rejected(self, rng):
        with pytest.raises(TypeError, match="unexpected keyword"):
            QuantLinear(rng.standard_normal((4, 4)), bitz=2)

    def test_conv_bare_kwargs_rejected(self, rng):
        from repro.nn import QuantConv2d

        with pytest.raises(TypeError, match="unexpected keyword"):
            QuantConv2d(rng.standard_normal((2, 1, 2, 2)), bits=2)

    def test_make_linear_bare_kwargs_rejected(self, rng):
        from repro.nn.linear import make_linear

        with pytest.raises(TypeError, match="unexpected keyword"):
            make_linear(rng.standard_normal((4, 4)), bits=2)


class TestBiasDtype:
    """Satellite: bias follows the layer dtype, never forced to float64."""

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_quantlinear_output_dtype_preserved_with_bias(self, rng, dtype):
        w = rng.standard_normal((4, 6))
        bias = rng.standard_normal(4).astype(dtype)
        layer = QuantLinear(w, bias, spec=QuantSpec(bits=2, mu=2))
        out = layer(rng.standard_normal((3, 6)).astype(dtype))
        assert out.dtype == dtype

    def test_float32_activations_not_upcast_by_float64_bias(self, rng):
        layer = QuantLinear(
            rng.standard_normal((4, 6)),
            rng.standard_normal(4),  # float64 bias
            spec=QuantSpec(bits=2, mu=2),
        )
        out = layer(rng.standard_normal((3, 6)).astype(np.float32))
        assert out.dtype == np.float32

    def test_bias_storage_keeps_given_dtype(self, rng):
        bias = rng.standard_normal(4).astype(np.float32)
        layer = Linear(rng.standard_normal((4, 6)), bias)
        assert layer.bias.dtype == np.float32
        qlayer = QuantLinear(
            rng.standard_normal((4, 6)), bias, spec=QuantSpec(bits=1, mu=2)
        )
        assert qlayer.bias.dtype == np.float32

    def test_dense_linear_preserves_float32(self, rng):
        layer = Linear(
            rng.standard_normal((4, 6)), rng.standard_normal(4)
        )
        out = layer(rng.standard_normal((3, 6)).astype(np.float32))
        assert out.dtype == np.float32

    def test_integer_bias_promoted_to_float64(self, rng):
        layer = Linear(rng.standard_normal((4, 6)), np.arange(4))
        assert layer.bias.dtype == np.float64
