"""Unit tests for the L1D / L2 cache model."""

import pytest

from repro.mem.cache import AccessOutcome, Cache, CacheConfig, WritePolicy


@pytest.fixture
def l1d():
    return Cache(CacheConfig.l1d_gtx480())


@pytest.fixture
def small_cache():
    # 4 sets x 2 ways, linear indexing: easy to reason about conflicts.
    return Cache(
        CacheConfig(
            name="tiny",
            size_bytes=8 * 128,
            associativity=2,
            set_hash="linear",
            write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
        )
    )


class TestGeometry:
    def test_l1d_table1_geometry(self, l1d):
        assert l1d.config.size_bytes == 16 * 1024
        assert l1d.config.num_sets == 32
        assert l1d.config.associativity == 4

    def test_l2_table1_geometry(self):
        l2 = Cache(CacheConfig.l2_gtx480())
        assert l2.config.size_bytes == 768 * 1024
        assert l2.config.num_sets == 768
        assert l2.config.associativity == 8
        assert l2.config.write_policy is WritePolicy.WRITE_BACK_WRITE_ALLOCATE

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=1000, associativity=3).validate()


class TestReadPath:
    def test_cold_miss_then_hit_after_fill(self, l1d):
        result = l1d.access(0x1000, wid=0, is_write=False, now=0)
        assert result.outcome is AccessOutcome.MISS
        # Before the fill returns, another access observes a reserved hit.
        result2 = l1d.access(0x1000, wid=1, is_write=False, now=1)
        assert result2.outcome is AccessOutcome.HIT_RESERVED
        l1d.fill(result.block, now=10)
        result3 = l1d.access(0x1000, wid=0, is_write=False, now=11)
        assert result3.outcome is AccessOutcome.HIT

    def test_miss_reports_eviction_owner(self, small_cache):
        # Fill both ways of set 0 (blocks 0 and 4 map to set 0 of 4 sets).
        a = small_cache.access(0 * 128, wid=1, is_write=False, now=0)
        small_cache.fill(a.block, 1)
        b = small_cache.access(4 * 128, wid=2, is_write=False, now=2)
        small_cache.fill(b.block, 3)
        result = small_cache.access(8 * 128, wid=3, is_write=False, now=4)
        assert result.outcome is AccessOutcome.MISS
        assert result.eviction is not None
        assert result.eviction.owner_wid in (1, 2)
        assert result.eviction.evictor_wid == 3

    def test_reservation_fail_when_set_full_of_pending_misses(self, small_cache):
        small_cache.access(0 * 128, wid=0, is_write=False, now=0)
        small_cache.access(4 * 128, wid=0, is_write=False, now=0)
        result = small_cache.access(8 * 128, wid=0, is_write=False, now=0)
        assert result.outcome is AccessOutcome.RESERVATION_FAIL

    def test_eviction_hook_invoked(self):
        seen = []
        cache = Cache(
            CacheConfig(name="t", size_bytes=2 * 128, associativity=1, set_hash="linear"),
            eviction_hook=seen.append,
        )
        first = cache.access(0, wid=0, is_write=False, now=0)
        cache.fill(first.block, 1)
        cache.access(2 * 128, wid=1, is_write=False, now=2)  # same set, evicts
        assert len(seen) == 1
        assert seen[0].owner_wid == 0


class TestWritePath:
    def test_write_through_no_allocate_miss(self, l1d):
        result = l1d.access(0x2000, wid=0, is_write=True, now=0)
        assert result.outcome is AccessOutcome.MISS_NO_ALLOCATE
        assert not l1d.contains(0x2000)

    def test_write_hit_updates_line(self, l1d):
        miss = l1d.access(0x3000, wid=0, is_write=False, now=0)
        l1d.fill(miss.block, 1)
        result = l1d.access(0x3000, wid=0, is_write=True, now=2)
        assert result.outcome is AccessOutcome.HIT

    def test_write_allocate_l2(self):
        l2 = Cache(CacheConfig.l2_gtx480())
        result = l2.access(0x4000, wid=0, is_write=True, now=0)
        assert result.outcome is AccessOutcome.MISS
        l2.fill(result.block, 1)
        assert l2.contains(0x4000)

    def test_dirty_victim_produces_writeback(self):
        l2 = Cache(
            CacheConfig(
                name="l2s",
                size_bytes=2 * 128,
                associativity=1,
                set_hash="linear",
                write_policy=WritePolicy.WRITE_BACK_WRITE_ALLOCATE,
            )
        )
        first = l2.access(0, wid=0, is_write=True, now=0)
        l2.fill(first.block, 1)
        result = l2.access(2 * 128, wid=0, is_write=False, now=2)
        assert result.writeback_block == first.block


class TestStatsAndHelpers:
    def test_hit_rate_accounting(self, l1d):
        miss = l1d.access(0x5000, wid=0, is_write=False, now=0)
        l1d.fill(miss.block, 1)
        l1d.access(0x5000, wid=0, is_write=False, now=2)
        assert l1d.stats.hits == 1
        assert l1d.stats.misses == 1
        assert l1d.stats.hit_rate == pytest.approx(0.5)

    def test_probe_owner_and_invalidate(self, l1d):
        miss = l1d.access(0x6000, wid=7, is_write=False, now=0)
        l1d.fill(miss.block, 1)
        tag, set_index, _ = l1d.mapping.decompose(0x6000)
        assert l1d.tags.probe(set_index, tag).owner_wid == 7
        assert l1d.invalidate(0x6000)
        assert l1d.tags.probe(set_index, tag) is None

    def test_flush(self, l1d):
        miss = l1d.access(0x7000, wid=0, is_write=False, now=0)
        l1d.fill(miss.block, 1)
        l1d.flush()
        assert not l1d.contains(0x7000)

    def test_occupancy_fraction(self, small_cache):
        assert small_cache.occupancy() == 0.0
        r = small_cache.access(0, wid=0, is_write=False, now=0)
        small_cache.fill(r.block, 1)
        assert 0 < small_cache.occupancy() <= 1.0
