"""Unit tests for the cost-model dispatch planner (repro.engine.dispatch)."""

import pytest

from repro.engine import (
    QuantSpec,
    batch_bucket,
    crossover_batch,
    dispatch,
    plan_backend,
    plan_costs,
    resolve_backend,
)
from repro.hw.machine import MACHINES


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
        # A custom config sharing a stock machine's name is priced on
        # its own numbers, not the stock machine's.
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

    def test_batch_priced_at_its_bucket(self):
        spec = QuantSpec(bits=3)
        for batch in (3, 17, 129):
            costs = plan_costs(
                1024, 1024, spec=spec, batch_hint=batch_bucket(batch)
            )
            best = min(costs, key=lambda k: costs[k].seconds)
            assert (
                plan_backend(1024, 1024, spec=spec, batch_hint=batch)
                == best
            ), batch


class TestResolveBackend:
    def test_concrete_backend_passes_through(self):
        for backend in ("biqgemm", "dense", "int8"):
            spec = QuantSpec(backend=backend, batch_hint=512)
            assert resolve_backend(spec, 1024, 1024) == backend

    def test_auto_plans_at_the_hint_or_batch_one(self):
        # pc, 3-bit, 1024^2: biqgemm below the batch-128 crossover,
        # dense from it on.
        for hint, plan in ((None, "biqgemm"), (1, "biqgemm"),
                           (256, "dense")):
            spec = QuantSpec(bits=3, backend="auto", batch_hint=hint)
            assert resolve_backend(spec, 1024, 1024) == plan, hint
