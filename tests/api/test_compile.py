"""Tests for QuantModel.compile / CompiledModel (planning, cache, cost)."""

import numpy as np
import pytest

from repro.api import QuantConfig, quantize
from repro.engine import (
    QuantSpec,
    clear_plan_cache,
    plan_backend,
    plan_cache_stats,
)
from repro.nn import build_encoder


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


CFG = QuantConfig(bits=3, mu=4, overrides={"ffn.*": {"bits": 4}})


def _compiled(batch_hint=1, layers=1, seed=0):
    enc = build_encoder("transformer-base", scale=16, layers=layers, seed=seed)
    return quantize(enc, CFG).compile(batch_hint=batch_hint)


class TestCompilePlans:
    def test_plans_match_direct_plan_backend(self):
        """Acceptance pin: one compile pass == per-layer planner calls,
        with the native compiled engine among the candidates."""
        from repro.engine import lossless_engines

        compiled = _compiled(batch_hint=1)
        for plan in compiled.layer_plans:
            expected = plan_backend(
                plan.m,
                plan.n,
                spec=CFG.spec_for(plan.name),
                batch_hint=1,
                candidates=lossless_engines() + ("compiled",),
            )
            assert plan.backend == expected, plan.name

    def test_override_changes_the_plan_inputs(self):
        compiled = _compiled()
        by_name = {p.name: p for p in compiled.layer_plans}
        assert by_name["L0.attn.q"].spec.bits == 3
        assert by_name["L0.ffn.ff1"].spec.bits == 4

    def test_layers_are_pinned_after_compile(self):
        compiled = _compiled(batch_hint=1)
        for name, layer in compiled.named_layers():
            assert layer.spec.backend == compiled.plans[name]
            assert layer.spec.batch_hint == 1

    def test_batch_hint_moves_the_plans(self):
        decode = _compiled(batch_hint=1)
        scoring = _compiled(batch_hint=512, seed=1)
        assert decode.plans["L0.attn.q"] == "compiled"
        assert scoring.plans["L0.attn.q"] == "dense"

    def test_compile_defaults_to_config_batch_hint(self):
        enc = build_encoder("transformer-base", scale=16, layers=1)
        compiled = quantize(enc, CFG.replace(batch_hint=512)).compile()
        assert compiled.batch_hint == 512
        assert compiled.plans["L0.attn.q"] == "dense"

    def test_machine_override_repriced(self):
        compiled = quantize(
            build_encoder("transformer-base", scale=16, layers=1),
            CFG,
        ).compile(batch_hint=1, machine="v100")
        for _, layer in compiled.named_layers():
            assert layer.spec.backend in ("biqgemm", "dense", "compiled")

    def test_outputs_match_direct_quantized_model(self, rng):
        spec = QuantSpec(bits=2, mu=4, backend="biqgemm")
        direct = build_encoder(
            "transformer-base", scale=16, layers=1, seed=3, spec=spec
        )
        compiled = quantize(
            build_encoder("transformer-base", scale=16, layers=1, seed=3),
            QuantConfig.from_spec(spec),
        ).compile(batch_hint=1)
        x = rng.standard_normal((1, 3, 32))
        assert np.allclose(compiled(x), direct(x))

    def test_warmup_builds_every_pinned_engine(self):
        compiled = _compiled(batch_hint=1)
        assert all(
            layer.compiled_backends == ()
            for _, layer in compiled.named_layers()
        )
        compiled.warmup()
        for name, layer in compiled.named_layers():
            assert layer.compiled_backends == (compiled.plans[name],)

    def test_bad_batch_hint_rejected(self):
        enc = build_encoder("transformer-base", scale=16, layers=1)
        with pytest.raises(ValueError, match="batch_hint"):
            quantize(enc, CFG).compile(batch_hint=0)

    def test_superseded_compile_refuses_to_serve(self, rng, tmp_path):
        """Recompiling re-pins the shared layers; the older handle must
        fail loudly rather than silently serve the new plans."""
        from repro.api import save

        qm = quantize(
            build_encoder("transformer-base", scale=16, layers=1), CFG
        )
        first = qm.compile(batch_hint=1)
        second = qm.compile(batch_hint=512)
        x = rng.standard_normal((1, 2, 32))
        with pytest.raises(ValueError, match="superseded"):
            first(x)
        with pytest.raises(ValueError, match="superseded"):
            first.warmup()
        with pytest.raises(ValueError, match="superseded"):
            save(first, tmp_path / "stale.npz")
        # The live handle keeps working.
        assert second(x).shape == x.shape


class TestCostReport:
    def test_report_covers_every_layer(self):
        compiled = _compiled()
        report = compiled.cost_report()
        assert len(report.rows) == len(compiled.plans)
        assert report.total_seconds > 0
        assert sum(report.by_backend().values()) == len(report.rows)

    def test_report_names_match_plans(self):
        compiled = _compiled()
        report = compiled.cost_report()
        assert {r[0]: r[1] for r in report.rows} == compiled.plans

    def test_report_renders(self):
        text = str(_compiled().cost_report())
        assert "L0.attn.q" in text and "batch_hint=1" in text


class TestPlanCacheBehaviour:
    """Satellite: cache accounting and isolation across compiled models."""

    def test_deep_stack_hits_cache_for_repeated_shapes(self):
        compiled = _compiled(layers=3)
        stats = plan_cache_stats()
        # 18 auto layers, but only 3 distinct (m, n, bits) shapes:
        # attention (d,d)@3b, ff1 (f,d)@4b, ff2 (d,f)@4b.
        assert stats["misses"] == 3
        assert stats["hits"] == 15
        assert len(compiled.plans) == 18

    def test_two_models_share_the_process_cache(self):
        _compiled(layers=1)
        misses_after_first = plan_cache_stats()["misses"]
        _compiled(layers=1, seed=1)
        stats = plan_cache_stats()
        assert stats["misses"] == misses_after_first  # all hits
        assert stats["hits"] >= 6

    def test_compiled_model_survives_cache_clear(self, rng):
        """Pinned plans are the model's own state, not cache entries."""
        compiled = _compiled(batch_hint=1).warmup()
        plans_before = compiled.plans
        x = rng.standard_normal((1, 2, 32))
        y_before = compiled(x)
        clear_plan_cache()
        assert compiled.plans == plans_before
        assert np.array_equal(compiled(x), y_before)
        for name, layer in compiled.named_layers():
            assert layer.planned_backend(512) == plans_before[name]

    def test_clear_between_compiles_isolates_accounting(self):
        _compiled(layers=1)
        clear_plan_cache()
        assert plan_cache_stats() == {"size": 0, "hits": 0, "misses": 0}
        _compiled(layers=1, seed=1)
        stats = plan_cache_stats()
        assert stats["misses"] == 3  # re-priced from scratch, no leakage
