"""End-to-end: ``QuantSpec(backend="auto")`` through every nn layer.

The acceptance shape of the engine-registry refactor: every model
builder that takes a spec must run with cost-model dispatch, producing
outputs that match the same model pinned to the ``dense`` oracle
backend (auto only considers lossless engines, so the numbers must
agree to float tolerance, whichever engine the planner picked).
"""

import numpy as np

from repro.engine import QuantSpec
from repro.nn.attention import MultiHeadAttention
from repro.nn.conv import QuantConv2d, conv2d_reference
from repro.nn.linear import QuantLinear
from repro.nn.lstm import BiLSTMLayer, LSTMCell, LSTMLayer
from repro.nn.model_zoo import build_encoder, model_backend_plan
from repro.nn.seq2seq import Seq2SeqTransformer
from repro.nn.transformer import TransformerConfig, TransformerEncoder

AUTO = QuantSpec(bits=2, mu=4, backend="auto")
ORACLE = QuantSpec(bits=2, mu=4, backend="dense")


class TestAutoInEveryLayer:
    def test_linear(self, rng):
        w = rng.standard_normal((12, 16))
        x = rng.standard_normal((3, 16))
        assert np.allclose(
            QuantLinear(w, spec=AUTO)(x),
            QuantLinear(w, spec=ORACLE)(x),
            atol=1e-8,
        )

    def test_attention(self, rng):
        dim, heads = 16, 2
        ws = [rng.standard_normal((dim, dim)) for _ in range(4)]
        x = rng.standard_normal((2, 5, dim))
        out_auto = MultiHeadAttention(*ws, heads=heads, spec=AUTO)(x)
        out_ref = MultiHeadAttention(*ws, heads=heads, spec=ORACLE)(x)
        assert np.allclose(out_auto, out_ref, atol=1e-7)

    def test_lstm_cells_and_layers(self, rng):
        hidden, inp = 8, 6
        w_ih = rng.standard_normal((4 * hidden, inp))
        w_hh = rng.standard_normal((4 * hidden, hidden))
        x = rng.standard_normal((3, 4, inp))
        fwd_a = LSTMCell(w_ih, w_hh, spec=AUTO)
        bwd_a = LSTMCell(w_ih, w_hh, spec=AUTO)
        fwd_r = LSTMCell(w_ih, w_hh, spec=ORACLE)
        bwd_r = LSTMCell(w_ih, w_hh, spec=ORACLE)
        out_auto = BiLSTMLayer(fwd_a, bwd_a)(x)
        out_ref = BiLSTMLayer(fwd_r, bwd_r)(x)
        assert np.allclose(out_auto, out_ref, atol=1e-7)
        assert np.allclose(
            LSTMLayer(fwd_a)(x), LSTMLayer(fwd_r)(x), atol=1e-7
        )

    def test_transformer_encoder(self, rng):
        config = TransformerConfig(dim=16, heads=2, ff_dim=32, layers=2)
        x = rng.standard_normal((2, 4, 16))
        out_auto = TransformerEncoder(
            config, np.random.default_rng(0), spec=AUTO
        )(x)
        out_ref = TransformerEncoder(
            config, np.random.default_rng(0), spec=ORACLE
        )(x)
        assert np.allclose(out_auto, out_ref, atol=1e-6)

    def test_conv(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((5, 3, 3, 3))
        layer = QuantConv2d(w, stride=1, pad=1, spec=AUTO)
        expected = conv2d_reference(x, layer.dequantized(), stride=1, pad=1)
        assert np.allclose(layer(x), expected, atol=1e-8)
        assert layer.planned_backend() in ("biqgemm", "dense")

    def test_seq2seq_greedy_decode(self, rng):
        config = TransformerConfig(dim=16, heads=2, ff_dim=32, layers=1)
        src = rng.integers(0, 20, size=(2, 4))
        model_auto = Seq2SeqTransformer(
            config, 20, np.random.default_rng(1), spec=AUTO
        )
        model_ref = Seq2SeqTransformer(
            config, 20, np.random.default_rng(1), spec=ORACLE
        )
        out_auto = model_auto.greedy_decode(src, max_len=5)
        out_ref = model_ref.greedy_decode(src, max_len=5)
        assert np.array_equal(out_auto, out_ref)

    def test_model_zoo_encoder(self, rng):
        enc = build_encoder(
            "transformer-base", layers=1, scale=16, spec=AUTO, seed=3
        )
        ref = build_encoder(
            "transformer-base", layers=1, scale=16, spec=ORACLE, seed=3
        )
        x = rng.standard_normal((1, 3, enc.config.dim))
        assert np.allclose(enc(x), ref(x), atol=1e-6)


class TestModelBackendPlan:
    def test_whole_model_plan_regimes(self):
        decode = model_backend_plan(
            "transformer-big", batch=1, spec=QuantSpec(bits=3, backend="auto")
        )
        assert decode and all(row[3] == "biqgemm" for row in decode)
        scoring = model_backend_plan(
            "transformer-big", batch=512,
            spec=QuantSpec(bits=3, backend="auto"),
        )
        assert any(row[3] == "dense" for row in scoring)

    def test_rows_mirror_gemm_shapes(self):
        from repro.nn.model_zoo import model_gemm_shapes

        rows = model_backend_plan("transformer-base", batch=8)
        assert [(r[0], r[1], r[2]) for r in rows] == model_gemm_shapes(
            "transformer-base"
        )
