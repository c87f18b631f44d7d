"""Tests for the cycle model, cache traffic model, and machine specs."""

import pytest
from hypothesis import given, strategies as st

from repro.util import KiB, MiB
from repro.hw.a64fx import A64FX, XEON_E5_2683V3, TLBLevelSpec
from repro.hw.cache import CacheModel
from repro.hw.cpu import CycleBreakdown, CycleModel, WorkCounts
from repro.hw.tlb import TLBStats


class TestMachineSpecs:
    def test_a64fx_shape(self):
        """Section I-A: 4 CMGs x 12 cores, 64KB L1, 8MB L2, 1.8 GHz, SVE-512."""
        assert A64FX.n_cores == 48
        assert A64FX.freq_hz == 1.8e9
        assert A64FX.l1d_bytes == 64 * KiB
        assert A64FX.l2_bytes == 8 * MiB
        assert A64FX.simd_lanes == 8

    def test_tlb_level_validation(self):
        with pytest.raises(ValueError):
            TLBLevelSpec(entries=10, assoc=3, miss_penalty=1.0)

    def test_xeon_has_higher_scalar_ipc(self):
        """Mechanism behind the paper's 'Xeon 3x faster' for branchy code."""
        assert XEON_E5_2683V3.scalar_ipc > 2 * A64FX.scalar_ipc


class TestCycleModel:
    def test_issue_cycles(self):
        model = CycleModel(A64FX)
        bd = model.cycles(WorkCounts(scalar_ops=1.1e9, simd_ops=0.0))
        assert bd.issue_cycles == pytest.approx(1e9)

    def test_simd_cheaper_than_scalar(self):
        model = CycleModel(A64FX)
        scalar = model.cycles(WorkCounts(scalar_ops=8e9)).total
        simd = model.cycles(WorkCounts(simd_ops=1e9)).total  # same flops vectorised
        assert simd < scalar / 2

    def test_memory_stall_scaling(self):
        model = CycleModel(A64FX, mem_exposed=1.0)
        bd = model.cycles(WorkCounts(dram_bytes=A64FX.stream_bw_per_core))
        assert bd.mem_cycles == pytest.approx(A64FX.freq_hz)

    def test_tlb_cycles_included(self):
        model = CycleModel(A64FX)
        stats = TLBStats(accesses=100, l1_misses=50, l2_misses=10)
        bd = model.cycles(WorkCounts(scalar_ops=1e6), stats)
        assert bd.tlb_cycles > 0
        assert bd.total > bd.issue_cycles

    def test_measures_keys(self):
        model = CycleModel(A64FX)
        m = model.measures(WorkCounts(scalar_ops=1e9, simd_ops=1e8, dram_bytes=1e9),
                           TLBStats(accesses=1000, l1_misses=100, l2_misses=10))
        assert set(m) == {"hardware_cycles", "time_s", "sve_per_cycle",
                          "mem_gbytes_per_s", "dtlb_misses_per_s"}
        assert m["time_s"] == pytest.approx(m["hardware_cycles"] / 1.8e9)

    def test_zero_work(self):
        model = CycleModel(A64FX)
        m = model.measures(WorkCounts(), TLBStats())
        assert m["hardware_cycles"] == 0.0
        assert m["time_s"] == 0.0

    @given(s=st.floats(0, 1e12), v=st.floats(0, 1e12), b=st.floats(0, 1e13))
    def test_monotone_in_work(self, s, v, b):
        model = CycleModel(A64FX)
        base = model.cycles(WorkCounts(s, v, b)).total
        more = model.cycles(WorkCounts(s * 2 + 1, v, b)).total
        assert more > base

    def test_breakdown_addition(self):
        a = CycleBreakdown(1.0, 2.0, 3.0)
        b = CycleBreakdown(10.0, 20.0, 30.0)
        c = a + b
        assert c.total == pytest.approx(66.0)

    def test_workcounts_scaled(self):
        w = WorkCounts(1.0, 2.0, 3.0).scaled(10)
        assert (w.scalar_ops, w.simd_ops, w.dram_bytes) == (10.0, 20.0, 30.0)


class TestCacheModel:
    def test_fits_in_cache_pays_cold_only(self):
        """A table that fits in cache is pulled from DRAM once, however
        many gathers read it."""
        cache = CacheModel(cache_bytes=8 * MiB)
        assert cache.gather_traffic(10**7, 8, table_bytes=1 * MiB) == 1 * MiB

    def test_streaming_pays_every_pass(self):
        """A table far larger than the cache costs about one line per
        gather."""
        cache = CacheModel(cache_bytes=8 * MiB)
        traffic = cache.gather_traffic(10**6, 8, table_bytes=512 * MiB)
        assert traffic > 0.98 * 10**6 * cache.line_bytes

    def test_gather_traffic_resident_table(self):
        cache = CacheModel(cache_bytes=8 * MiB)
        small = cache.gather_traffic(10**6, 8, table_bytes=1 * MiB)
        big = cache.gather_traffic(10**6, 8, table_bytes=512 * MiB)
        assert small < big

    def test_gather_traffic_zero(self):
        cache = CacheModel(cache_bytes=8 * MiB)
        assert cache.gather_traffic(0, 8, table_bytes=1 * MiB) == 0
