"""Unit tests for Linear / QuantLinear (repro.nn.linear)."""

import numpy as np
import pytest

from repro.nn.linear import Linear, QuantLinear, QuantSpec, make_linear


class TestLinear:
    def test_matches_formula(self, rng):
        w = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        layer = Linear(w, b)
        x = rng.standard_normal((3, 8))
        assert np.allclose(layer(x), x @ w.T + b)

    def test_leading_dims_preserved(self, rng):
        layer = Linear(rng.standard_normal((4, 6)))
        x = rng.standard_normal((2, 3, 6))
        assert layer(x).shape == (2, 3, 4)

    def test_rejects_bad_bias(self, rng):
        with pytest.raises(ValueError, match="bias"):
            Linear(rng.standard_normal((4, 6)), rng.standard_normal(3))

    def test_shape_property(self, rng):
        assert Linear(rng.standard_normal((4, 6))).shape == (4, 6)


class TestQuantLinear:
    @pytest.mark.parametrize("backend", ["biqgemm", "compiled", "dense"])
    def test_backends_match_dequantized_product(self, rng, backend):
        w = rng.standard_normal((10, 16))
        spec = QuantSpec(bits=3, mu=4, backend=backend)
        layer = QuantLinear(w, spec=spec)
        x = rng.standard_normal((5, 16))
        expected = x @ layer.dequantized().T
        assert np.allclose(layer(x), expected, atol=1e-8), backend

    def test_backends_agree_with_each_other(self, rng):
        w = rng.standard_normal((8, 12))
        x = rng.standard_normal((4, 12))
        outs = [
            QuantLinear(w, spec=QuantSpec(bits=2, mu=4, backend=b))(x)
            for b in ("biqgemm", "compiled", "dense")
        ]
        for other in outs[1:]:
            assert np.allclose(outs[0], other, atol=1e-8)

    def test_bias_applied(self, rng):
        w = rng.standard_normal((6, 9))
        bias = rng.standard_normal(6)
        layer = QuantLinear(w, bias, spec=QuantSpec(bits=2, mu=4))
        x = rng.standard_normal((2, 9))
        no_bias = QuantLinear(w, spec=QuantSpec(bits=2, mu=4))(x)
        assert np.allclose(layer(x), no_bias + bias, atol=1e-10)

    def test_3d_input(self, rng):
        layer = QuantLinear(rng.standard_normal((4, 6)), spec=QuantSpec(bits=2, mu=2))
        x = rng.standard_normal((2, 3, 6))
        assert layer(x).shape == (2, 3, 4)

    def test_more_bits_reduce_error(self, rng):
        w = rng.standard_normal((16, 32))
        x = rng.standard_normal((8, 32))
        exact = x @ w.T
        errs = [
            np.linalg.norm(
                QuantLinear(w, spec=QuantSpec(bits=b, mu=8))(x) - exact
            )
            for b in (1, 2, 4)
        ]
        assert errs[2] < errs[1] < errs[0]

    def test_weight_nbytes_ordering(self, rng):
        # Deployed bytes: 2-bit biqgemm keys << dense float32 weights.
        w = rng.standard_normal((32, 64))
        biq = QuantLinear(w, spec=QuantSpec(bits=2, mu=8, backend="biqgemm"))
        dense = QuantLinear(w, spec=QuantSpec(bits=2, mu=8, backend="dense"))
        assert biq.weight_nbytes < dense.weight_nbytes / 8

    def test_rejects_unknown_backend(self, rng):
        with pytest.raises(ValueError, match="backend"):
            QuantLinear(
                rng.standard_normal((4, 4)),
                spec=QuantSpec(backend="magic"),
            )

    def test_rejects_feature_mismatch(self, rng):
        layer = QuantLinear(rng.standard_normal((4, 6)), spec=QuantSpec(bits=1, mu=2))
        with pytest.raises(ValueError, match="features"):
            layer(rng.standard_normal((2, 7)))

    def test_rejects_bad_bias(self, rng):
        with pytest.raises(ValueError, match="bias"):
            QuantLinear(
                rng.standard_normal((4, 6)),
                rng.standard_normal(5),
                spec=QuantSpec(bits=1, mu=2),
            )


class TestAutoBackend:
    """QuantSpec(backend="auto"): cost-model dispatch at the layer level."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        from repro.engine import clear_plan_cache

        clear_plan_cache()
        yield
        clear_plan_cache()

    def test_auto_matches_dequantized_product(self, rng):
        w = rng.standard_normal((10, 16))
        layer = QuantLinear(w, spec=QuantSpec(bits=2, mu=4, backend="auto"))
        x = rng.standard_normal((5, 16))
        assert np.allclose(layer(x), x @ layer.dequantized().T, atol=1e-8)

    def test_gemv_regime_plans_biqgemm(self, rng):
        layer = QuantLinear(
            rng.standard_normal((64, 64)),
            spec=QuantSpec(bits=3, backend="auto", machine="pc"),
        )
        assert layer.planned_backend(batch=1) == "biqgemm"

    def test_large_batch_regime_plans_dense(self, rng):
        layer = QuantLinear(
            rng.standard_normal((64, 64)),
            spec=QuantSpec(bits=3, backend="auto", machine="pc"),
        )
        assert layer.planned_backend(batch=512) == "dense"

    def test_one_layer_serves_both_regimes(self, rng):
        """Per-call dispatch: same layer, engine follows the batch."""
        w = rng.standard_normal((64, 64))
        layer = QuantLinear(w, spec=QuantSpec(bits=3, backend="auto"))
        deq = layer.dequantized()

        x1 = rng.standard_normal((1, 64))
        assert np.allclose(layer(x1), x1 @ deq.T, atol=1e-8)
        assert layer.compiled_backends == ("biqgemm",)

        x512 = rng.standard_normal((512, 64))
        assert np.allclose(layer(x512), x512 @ deq.T, atol=1e-6)
        assert layer.compiled_backends == ("biqgemm", "dense")

        # Returning to the GEMV regime reuses the compiled engine.
        assert np.allclose(layer(x1), x1 @ deq.T, atol=1e-8)
        assert layer.compiled_backends == ("biqgemm", "dense")

    def test_batch_hint_pins_the_plan(self, rng):
        layer = QuantLinear(
            rng.standard_normal((64, 64)),
            spec=QuantSpec(bits=3, backend="auto", batch_hint=1),
        )
        # Even a large-batch call stays on the hinted plan.
        assert layer.planned_backend(batch=512) == "biqgemm"

    def test_repeated_calls_hit_plan_cache(self, rng):
        from repro.engine import plan_cache_stats

        layer = QuantLinear(
            rng.standard_normal((16, 16)),
            spec=QuantSpec(bits=2, mu=4, backend="auto"),
        )
        x = rng.standard_normal((3, 16))
        layer(x)
        hits_before = plan_cache_stats()["hits"]
        for _ in range(4):
            layer(x)
        assert plan_cache_stats()["hits"] >= hits_before + 4

    def test_dequantized_does_not_compile_an_engine(self, rng):
        layer = QuantLinear(
            rng.standard_normal((8, 8)),
            spec=QuantSpec(bits=1, mu=2, backend="auto"),
        )
        layer.dequantized()
        assert layer.compiled_backends == ()

    def test_bad_batch_hint_rejected_at_construction(self, rng):
        with pytest.raises(ValueError, match="batch_hint"):
            QuantLinear(
                rng.standard_normal((4, 4)),
                spec=QuantSpec(backend="auto", batch_hint=0),
            )

    def test_auto_rejects_unknown_machine(self, rng):
        with pytest.raises(ValueError, match="machine"):
            QuantLinear(
                rng.standard_normal((4, 4)),
                spec=QuantSpec(backend="auto", machine="cray"),
            )

    def test_int8_backend_explicit(self, rng):
        """Lossy engines are reachable by name, never via auto."""
        w = rng.standard_normal((12, 32))
        layer = QuantLinear(w, spec=QuantSpec(backend="int8"))
        x = rng.standard_normal((6, 32))
        corr = np.corrcoef(layer(x).ravel(), (x @ w.T).ravel())[0, 1]
        assert corr > 0.95

    def test_int8_dequantized_reports_the_serving_grid(self, rng):
        """dequantized() must describe the engine that multiplies."""
        from repro.gemm.int8 import Int8Gemm

        w = rng.standard_normal((8, 16))
        layer = QuantLinear(w, spec=QuantSpec(backend="int8"))
        # The uniform grid, not a BCQ reconstruction.
        assert np.allclose(
            layer.dequantized(), Int8Gemm(w, w_bits=8).dequantized()
        )
        # And the BCQ solve never ran for it.
        assert layer._request.bcq is None

    def test_float16_preserved_across_auto_regimes(self, rng):
        """Engine switching must not flip the activation dtype."""
        layer = QuantLinear(
            rng.standard_normal((32, 32)),
            spec=QuantSpec(bits=3, backend="auto"),
        )
        for batch in (1, 512):  # biqgemm regime, then dense regime
            out = layer(
                rng.standard_normal((batch, 32)).astype(np.float16)
            )
            assert out.dtype == np.float16, batch

    def test_no_backend_chains_in_layer_source(self):
        """Acceptance pin: dispatch lives in repro.engine, not the layer."""
        import inspect

        import repro.nn.linear as linear_module

        source = inspect.getsource(linear_module)
        assert "backend ==" not in source
        assert "elif" not in source

    def test_zero_token_input(self, rng):
        """Empty batches must flow through without planning or crashing."""
        for backend in ("auto", "biqgemm", "dense"):
            layer = QuantLinear(
                rng.standard_normal((4, 6)),
                spec=QuantSpec(bits=1, mu=2, backend=backend),
            )
            out = layer(np.zeros((0, 6)))
            assert out.shape == (0, 4), backend

    def test_float_weight_released_after_quantization(self, rng):
        """Deployment invariant: only quantized state is retained."""
        for backend in ("auto", "biqgemm", "dense"):
            layer = QuantLinear(
                rng.standard_normal((4, 6)),
                spec=QuantSpec(bits=1, mu=2, backend=backend),
            )
            assert layer._request.weight is None, backend
        # int8 genuinely needs the original to fit its uniform grid.
        layer = QuantLinear(
            rng.standard_normal((4, 6)), spec=QuantSpec(backend="int8")
        )
        assert layer._request.weight is not None

    def test_batch_invariant_auto_plans_at_batch_one(self, rng):
        """An auto spec in batch-invariant mode must run every batch on
        the engine a lone GEMV would use: replanning at the observed
        batch could route a prefill onto a different engine (dense at
        512 columns) whose bits differ from the decode step's."""
        layer = QuantLinear(
            rng.standard_normal((64, 64)),
            spec=QuantSpec(bits=3, backend="auto", machine="pc"),
        )
        assert layer.planned_backend(batch=512) == "dense"
        layer.set_batch_invariant(True)
        x = rng.standard_normal((512, 64))
        batched = layer(x)
        # Only the batch-1 engine ever compiled -- the batched call did
        # not consult the planner at the observed batch.
        assert layer.compiled_backends == ("biqgemm",)
        for i in (0, 1, 200, 511):
            assert np.array_equal(batched[i], layer(x[i : i + 1])[0]), i


class TestMakeLinear:
    def test_none_spec_gives_dense(self, rng):
        layer = make_linear(rng.standard_normal((3, 4)))
        assert isinstance(layer, Linear)

    def test_spec_gives_quantized(self, rng):
        layer = make_linear(
            rng.standard_normal((3, 4)), spec=QuantSpec(bits=1, mu=2)
        )
        assert isinstance(layer, QuantLinear)
