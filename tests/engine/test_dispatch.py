"""Unit tests for the cost-model dispatch planner (repro.engine.dispatch)."""

import pytest

from repro.engine import (
    QuantSpec,
    batch_bucket,
    clear_plan_cache,
    crossover_batch,
    dispatch,
    plan_backend,
    plan_cache_stats,
    plan_costs,
)
from repro.hw.machine import MACHINES


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestBatchBucket:
    def test_powers_of_two_fixed(self):
        for b in (1, 2, 4, 32, 256):
            assert batch_bucket(b) == b

    def test_rounds_up(self):
        assert batch_bucket(3) == 4
        assert batch_bucket(17) == 32
        assert batch_bucket(129) == 256

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            batch_bucket(0)


class TestPlanRegimes:
    """The acceptance pin: paper Fig. 10 / Table IV regimes."""

    def test_small_batch_gemv_picks_biqgemm(self):
        spec = QuantSpec(bits=3, backend="auto", machine="pc")
        assert plan_backend(1024, 1024, spec=spec, batch_hint=1) == "biqgemm"

    def test_large_batch_picks_dense(self):
        spec = QuantSpec(bits=3, backend="auto", machine="pc")
        assert plan_backend(1024, 1024, spec=spec, batch_hint=256) == "dense"

    def test_fewer_bits_extend_biqgemm_regime(self):
        # Fig. 10: the crossover moves right as bits shrink.
        one = crossover_batch(1024, 1024, spec=QuantSpec(bits=1), machine="pc")
        three = crossover_batch(1024, 1024, spec=QuantSpec(bits=3), machine="pc")
        assert three is not None
        assert one is None or one > three

    def test_crossover_matches_plan(self):
        spec = QuantSpec(bits=3)
        cross = crossover_batch(1024, 1024, spec=spec, machine="pc")
        assert cross is not None
        assert plan_backend(1024, 1024, spec=spec, batch_hint=cross) != "biqgemm"
        if cross > 1:
            assert (
                plan_backend(1024, 1024, spec=spec, batch_hint=cross // 2)
                == "biqgemm"
            )

    def test_lossy_engines_never_auto_planned(self):
        for b in (1, 32, 512):
            for m in (64, 1024):
                plan = plan_backend(m, m, spec=QuantSpec(bits=3), batch_hint=b)
                assert plan != "int8"

    def test_dispatch_convenience_form(self):
        assert dispatch((1024, 1024), bits=3, batch_hint=1) == "biqgemm"
        assert dispatch((1024, 1024), bits=3, batch_hint=256) == "dense"

    def test_machine_config_instance_accepted(self):
        plan = plan_backend(
            1024, 1024, spec=QuantSpec(bits=3), machine=MACHINES["mobile"]
        )
        assert plan == "biqgemm"

    def test_modified_machine_config_not_served_stale_plan(self):
        # A custom config sharing a stock machine's name must get its
        # own cache line, not the stock plan.
        import dataclasses

        pc = MACHINES["pc"]
        spec = QuantSpec(bits=3)
        stock = plan_backend(1024, 1024, spec=spec, batch_hint=256, machine=pc)
        assert stock == "dense"
        starved = dataclasses.replace(pc, bandwidth=pc.bandwidth / 1000)
        assert (
            plan_backend(1024, 1024, spec=spec, batch_hint=256, machine=starved)
            == "biqgemm"
        )

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            plan_backend(8, 8, spec=QuantSpec(), machine="cray")


class TestPlanCosts:
    def test_costs_cover_lossless_candidates(self):
        costs = plan_costs(512, 512, spec=QuantSpec(bits=2), batch_hint=8)
        assert set(costs) == {"biqgemm", "dense"}
        for est in costs.values():
            assert est.seconds > 0

    def test_biqgemm_is_priced_as_the_native_kernel(self):
        from repro.hw.costmodel import estimate_biqgemm, estimate_compiled
        from repro.hw.machine import MACHINES

        for fuse in (None, "relu"):
            spec = QuantSpec(bits=3, fuse=fuse)
            got = plan_costs(512, 512, spec=spec, batch_hint=8)["biqgemm"]
            want = estimate_compiled(
                MACHINES["pc"], 512, 512, 8, bits=3, mu=8, fuse=fuse
            )
            assert got == want, fuse
            paper = estimate_biqgemm(MACHINES["pc"], 512, 512, 8, bits=3)
            assert got.seconds <= paper.seconds, fuse

    def test_plan_is_argmin_of_costs(self):
        spec = QuantSpec(bits=2)
        costs = plan_costs(512, 512, spec=spec, batch_hint=8)
        best = min(costs, key=lambda k: costs[k].seconds)
        assert plan_backend(512, 512, spec=spec, batch_hint=8) == best


class TestPlanCache:
    def test_repeated_plans_hit_cache(self):
        spec = QuantSpec(bits=3)
        plan_backend(256, 256, spec=spec, batch_hint=4)
        before = plan_cache_stats()
        for _ in range(5):
            plan_backend(256, 256, spec=spec, batch_hint=4)
        after = plan_cache_stats()
        assert after["hits"] == before["hits"] + 5
        assert after["misses"] == before["misses"]

    def test_same_bucket_shares_entry(self):
        spec = QuantSpec(bits=3)
        plan_backend(256, 256, spec=spec, batch_hint=17)
        size_before = plan_cache_stats()["size"]
        plan_backend(256, 256, spec=spec, batch_hint=32)  # same bucket
        assert plan_cache_stats()["size"] == size_before

    def test_fused_and_unfused_specs_get_distinct_entries(self):
        # The biqgemm engine's fusion credit changes its price; a fused
        # plan served to an unfused spec -- or vice versa -- would pin
        # the wrong engine.  The cache key must include ``fuse``.
        fused = plan_backend(
            1024, 1024, spec=QuantSpec(bits=1, fuse="relu"), batch_hint=1
        )
        unfused = plan_backend(
            1024, 1024, spec=QuantSpec(bits=1), batch_hint=1
        )
        assert plan_cache_stats()["size"] == 2
        for spec, cached in (
            (QuantSpec(bits=1, fuse="relu"), fused),
            (QuantSpec(bits=1), unfused),
        ):
            fresh = plan_backend(
                1024, 1024, spec=spec, batch_hint=1, use_cache=False
            )
            assert cached == fresh, spec.fuse

    def test_distinct_shapes_get_distinct_entries(self):
        spec = QuantSpec(bits=3)
        plan_backend(256, 256, spec=spec, batch_hint=1)
        plan_backend(512, 256, spec=spec, batch_hint=1)
        assert plan_cache_stats()["size"] == 2

    def test_clear_resets(self):
        plan_backend(64, 64, spec=QuantSpec(), batch_hint=1)
        clear_plan_cache()
        assert plan_cache_stats() == {"size": 0, "hits": 0, "misses": 0}


class TestAutotunePlanner:
    def test_autotune_picks_a_lossless_engine(self):
        # Tiny shape so the micro-benchmark stays fast.
        spec = QuantSpec(bits=1, mu=2, planner="autotune")
        plan = plan_backend(16, 16, spec=spec, batch_hint=2)
        assert plan in {"biqgemm", "dense"}

    def test_autotune_result_cached(self):
        spec = QuantSpec(bits=1, mu=2, planner="autotune")
        first = plan_backend(16, 16, spec=spec, batch_hint=2)
        before = plan_cache_stats()["hits"]
        assert plan_backend(16, 16, spec=spec, batch_hint=2) == first
        assert plan_cache_stats()["hits"] == before + 1

    def test_bad_planner_rejected(self):
        spec = QuantSpec(planner="oracle")
        with pytest.raises(ValueError, match="planner"):
            plan_backend(8, 8, spec=spec, use_cache=False)


class TestEmpiricalBackend:
    def test_returns_candidate_and_timings(self):
        from repro.core.autotune import empirical_backend

        best, timings = empirical_backend(
            12, 8, 2, bits=1, mu=2, repeats=1,
            candidates=("dense", "biqgemm"),
        )
        assert best in ("dense", "biqgemm")
        assert set(timings) == {"dense", "biqgemm"}
        assert all(t >= 0 for t in timings.values())

    def test_empty_candidates_rejected(self):
        from repro.core.autotune import empirical_backend

        with pytest.raises(ValueError, match="non-empty"):
            empirical_backend(4, 4, 1, candidates=())
