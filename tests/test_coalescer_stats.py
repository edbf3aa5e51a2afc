"""Unit tests for the coalescer and the statistics containers."""

import pytest

from repro.gpu.coalescer import Coalescer
from repro.gpu.stats import SMStats, TimeSeries, merge_stats


class TestCoalescer:
    def test_fully_coalesced_access(self):
        coalescer = Coalescer()
        lanes = [lane * 4 for lane in range(32)]  # all within block 0
        assert coalescer.coalesce(lanes) == [0]

    def test_divergent_access(self):
        coalescer = Coalescer()
        lanes = [lane * 128 for lane in range(32)]  # one block per lane
        blocks = coalescer.coalesce(lanes)
        assert len(blocks) == 32

    def test_order_preserved_first_appearance(self):
        coalescer = Coalescer()
        blocks = coalescer.coalesce([5 * 128, 0, 5 * 128 + 4, 130])
        assert blocks == [5, 0, 1]

    def test_empty_and_negative(self):
        coalescer = Coalescer()
        assert coalescer.coalesce([]) == []
        with pytest.raises(ValueError):
            coalescer.coalesce([-1])

    def test_block_to_byte(self):
        assert Coalescer.block_to_byte(3) == 384


class TestTimeSeries:
    def test_append_and_mean(self):
        series = TimeSeries()
        series.append(100, 1.0)
        series.append(200, 3.0)
        assert len(series) == 2
        assert series.mean() == pytest.approx(2.0)
        assert series.as_pairs() == [(100, 1.0), (200, 3.0)]

    def test_empty_mean(self):
        assert TimeSeries().mean() == 0.0


class TestSMStats:
    def test_ipc(self):
        stats = SMStats(warp_size=32)
        stats.cycles = 100
        stats.instructions_issued = 50
        assert stats.warp_ipc == pytest.approx(0.5)
        assert stats.ipc == pytest.approx(16.0)

    def test_record_vta_hit_builds_matrix(self):
        stats = SMStats()
        stats.record_vta_hit(3, 7)
        stats.record_vta_hit(3, 7)
        stats.record_vta_hit(3, 9)
        assert stats.vta_hits == 3
        assert stats.interference_matrix[3][7] == 2
        pairs = stats.interference_pairs()
        assert pairs[0] == (3, 7, 2)
        low, high = stats.interference_extremes()
        assert low == 1 and high == 2

    def test_interference_extremes_empty(self):
        assert SMStats().interference_extremes() == (0, 0)

    def test_summary_keys(self):
        summary = SMStats().summary()
        for key in ("ipc", "l1d_hit_rate", "vta_hits", "mean_active_warps"):
            assert key in summary

    def test_merge_stats(self):
        a = SMStats()
        a.cycles = 100
        a.instructions_issued = 100
        a.l1d_hits = 10
        a.l1d_misses = 10
        b = SMStats()
        b.cycles = 150
        b.instructions_issued = 50
        b.l1d_hits = 30
        b.l1d_misses = 10
        merged = merge_stats([a, b])
        assert merged.cycles == 150
        assert merged.instructions_issued == 150
        assert merged.l1d_hit_rate == pytest.approx(40 / 60)

    def test_merge_empty(self):
        assert merge_stats([]).cycles == 0
