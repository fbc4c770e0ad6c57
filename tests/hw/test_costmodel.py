"""Unit tests for the roofline cost model (repro.hw.costmodel).

Exact times are calibration-dependent; these tests pin the *qualitative*
paper claims the model exists to reproduce (orderings, crossovers,
monotonicities), plus a loose band around a few Table IV anchor cells.
"""

import numpy as np
import pytest

from repro.bench.paper_data import TABLE4_PAPER
from repro.hw.costmodel import (
    estimate,
    estimate_biqgemm,
    estimate_gemm,
    estimate_packed_gemm,
    estimate_xnor,
)
from repro.hw.machine import MACHINES

PC = MACHINES["pc"]
MOBILE = MACHINES["mobile"]
V100 = MACHINES["v100"]


class TestEstimateStructure:
    def test_unknown_serving_backend_lists_the_table(self):
        from repro.hw.costmodel import estimate_backend

        with pytest.raises(ValueError) as info:
            estimate_backend("compiled", PC, 64, 64, 1)
        assert "['biqgemm', 'dense', 'int8']" in str(info.value)

    def test_roofline_max_plus_overhead(self):
        est = estimate_gemm(V100, 512, 512, 32)
        assert est.seconds == pytest.approx(
            max(est.compute_seconds, est.memory_seconds) + est.overhead_seconds
        )

    def test_bound_label(self):
        small_batch = estimate_gemm(PC, 2048, 2048, 1)
        large_batch = estimate_gemm(PC, 2048, 2048, 512)
        assert small_batch.bound == "memory"
        assert large_batch.bound == "compute"

    def test_dispatcher(self):
        direct = estimate_biqgemm(PC, 256, 256, 4, bits=2)
        via = estimate("biqgemm", PC, 256, 256, 4, bits=2)
        assert direct.seconds == via.seconds

    def test_dispatcher_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            estimate("magic", PC, 4, 4, 1)

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            estimate_gemm(PC, 0, 4, 1)


class TestMonotonicity:
    def test_time_nondecreasing_in_problem_size(self):
        for fn in (estimate_gemm, estimate_biqgemm, estimate_xnor):
            small = fn(PC, 256, 256, 4).seconds
            bigger_m = fn(PC, 512, 256, 4).seconds
            bigger_b = fn(PC, 256, 256, 8).seconds
            assert bigger_m >= small
            assert bigger_b >= small

    def test_biqgemm_time_grows_with_bits(self):
        times = [
            estimate_biqgemm(PC, 1024, 1024, 8, bits=b).seconds
            for b in (1, 2, 3)
        ]
        assert times == sorted(times)

    def test_threads_speed_up_cpu(self):
        t1 = estimate_biqgemm(PC, 2048, 1024, 8, threads=1).seconds
        t4 = estimate_biqgemm(PC, 2048, 1024, 8, threads=4).seconds
        assert t4 < t1

    def test_threads_ignored_on_gpu(self):
        t1 = estimate_gemm(V100, 1024, 1024, 8, threads=1).seconds
        t4 = estimate_gemm(V100, 1024, 1024, 8, threads=4).seconds
        assert t1 == t4


class TestTableIVShape:
    """Qualitative Table IV checks (1-bit weights, V100)."""

    def test_biqgemm_fastest_at_batch_one(self):
        for n in (512, 1024, 2048, 4096):
            biq = estimate_biqgemm(V100, n, n, 1).seconds
            kgpu = estimate_gemm(V100, n, n, 1, engine="naive").seconds
            cublas = estimate_gemm(V100, n, n, 1, engine="blas").seconds
            xnor = estimate_xnor(V100, n, n, 1).seconds
            assert biq < kgpu
            assert biq < cublas
            assert biq < xnor

    def test_cublas_overtakes_biqgemm_at_4096_large_batch(self):
        # Paper: 4096/b=128 -> BiQGEMM 528us vs cuBLAS 339us.
        biq = estimate_biqgemm(V100, 4096, 4096, 128).seconds
        cublas = estimate_gemm(V100, 4096, 4096, 128).seconds
        assert cublas < biq

    def test_biqgemm_always_beats_kgpu(self):
        # Paper: 1.08-30.42x faster than kGpu everywhere.
        for (n, b) in TABLE4_PAPER:
            biq = estimate_biqgemm(V100, n, n, b).seconds
            kgpu = estimate_gemm(V100, n, n, b, engine="naive").seconds
            assert biq < kgpu, (n, b)

    def test_xnor_nearly_flat_in_batch_at_512(self):
        t1 = estimate_xnor(V100, 512, 512, 1).seconds
        t256 = estimate_xnor(V100, 512, 512, 256).seconds
        assert t256 < 2.0 * t1

    def test_anchor_cells_within_2x_of_paper(self):
        """Absolute sanity: model within a factor ~2 of every paper cell."""
        for (n, b), (p_biq, p_kgpu, p_cublas, p_xnor) in TABLE4_PAPER.items():
            model = (
                estimate_biqgemm(V100, n, n, b).seconds * 1e6,
                estimate_gemm(V100, n, n, b, engine="naive").seconds * 1e6,
                estimate_gemm(V100, n, n, b, engine="blas").seconds * 1e6,
                estimate_xnor(V100, n, n, b).seconds * 1e6,
            )
            for ours, paper in zip(model, (p_biq, p_kgpu, p_cublas, p_xnor)):
                assert ours < 2.6 * paper, ((n, b), ours, paper)
                assert ours > paper / 3.2, ((n, b), ours, paper)


class TestFig10Shape:
    """Qualitative Fig. 10 checks (speedup over BLAS, one thread)."""

    @staticmethod
    def speedup(machine, m, b, bits):
        gemm = estimate_gemm(machine, m, 1024, b).seconds
        biq = estimate_biqgemm(machine, m, 1024, b, bits=bits).seconds
        return gemm / biq

    def test_small_batch_speedups_above_one(self):
        for machine in (PC, MOBILE):
            for bits in (1, 2, 3):
                assert self.speedup(machine, 1024, 1, bits) > 1.0

    def test_speedup_decreases_with_bits(self):
        s = [self.speedup(PC, 2048, 8, bits) for bits in (1, 2, 3)]
        assert s == sorted(s, reverse=True)

    def test_speedup_decreases_with_large_batch(self):
        s1 = self.speedup(PC, 2048, 1, 1)
        s256 = self.speedup(PC, 2048, 256, 1)
        assert s256 < s1

    def test_pc_3bit_crossover_near_batch_128(self):
        # Paper: "when batch size exceeds 128 ... eigen and mkl are
        # faster than BiQGEMM with 3-bit quantization."
        assert self.speedup(PC, 1024, 32, 3) > 1.0
        assert self.speedup(PC, 1024, 256, 3) < 1.0

    def test_mobile_outlasts_pc(self):
        # Paper: mobile BiQGEMM stays faster at larger batch than PC.
        assert self.speedup(MOBILE, 1024, 256, 3) > self.speedup(
            PC, 1024, 256, 3
        )

    def test_mobile_peak_speedup_in_paper_band(self):
        # Fig. 10(b) peaks around 15-20x for 1-bit at batch 1.
        s = self.speedup(MOBILE, 4096, 1, 1)
        assert 8.0 < s < 30.0

    def test_speedup_grows_with_output_size(self):
        s = [self.speedup(PC, m, 8, 1) for m in (1024, 2048, 4096)]
        assert s == sorted(s)


class TestFig9Shape:
    """Packed-GEMM scenario ordering (paper Fig. 9)."""

    @pytest.mark.parametrize("machine", [PC, MOBILE, V100])
    @pytest.mark.parametrize("b", [32, 64, 128])
    def test_ordering_without_lt_container_lt_with(self, machine, b):
        without = estimate_packed_gemm(
            machine, 1024, 1024, b, scenario="without_unpack"
        ).seconds
        container = estimate_packed_gemm(
            machine, 1024, 1024, b, scenario="container"
        ).seconds
        with_unpack = estimate_packed_gemm(
            machine, 1024, 1024, b, scenario="with_unpack"
        ).seconds
        assert without < container < with_unpack

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            estimate_packed_gemm(PC, 4, 4, 1, scenario="magic")


class TestBiqgemmDetail:
    def test_detail_terms_present(self):
        est = estimate_biqgemm(PC, 512, 512, 4, bits=2)
        for key in ("build_s", "query_s", "key_s", "lookups", "key_bytes"):
            assert key in est.detail

    def test_key_bytes_reduction_vs_fp32(self):
        est = estimate_biqgemm(PC, 512, 512, 1, bits=1, mu=8)
        fp32_weights = 512 * 512 * 4
        assert est.detail["key_bytes"] == fp32_weights / 32

    def test_spill_slows_query_on_cpu(self):
        fast = estimate_biqgemm(PC, 1024, 1024, 32).detail["query_s"] / 32
        slow = estimate_biqgemm(PC, 1024, 1024, 256).detail["query_s"] / 256
        assert slow > fast
