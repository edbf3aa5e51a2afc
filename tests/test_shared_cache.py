"""Unit tests for the CIAO shared-memory cache and address translation unit."""

import pytest

from repro.mem.address import BLOCK_SIZE
from repro.mem.shared_cache import AddressTranslationUnit, SharedMemoryCache
from repro.mem.shared_memory import SharedMemory


@pytest.fixture
def shared_memory():
    return SharedMemory(48 * 1024)


class TestAddressTranslationUnit:
    def test_translate_fields_in_range(self):
        atu = AddressTranslationUnit(num_lines=256)
        for address in range(0, 256 * BLOCK_SIZE * 3, 997):
            loc = atu.translate(address)
            assert 0 <= loc.line_index < 256
            assert 0 <= loc.byte_offset < BLOCK_SIZE
            assert 0 <= loc.bank < 16
            assert loc.bank_group in (0, 1)
            assert loc.tag_bank_group == 1 - loc.bank_group
            assert 0 <= loc.tag_slot < 32

    def test_tag_and_data_in_different_groups(self):
        atu = AddressTranslationUnit(num_lines=64)
        loc = atu.translate(12345 * BLOCK_SIZE)
        assert loc.bank_group != loc.tag_bank_group

    def test_same_block_same_location(self):
        atu = AddressTranslationUnit(num_lines=64)
        a = atu.translate(5 * BLOCK_SIZE + 4)
        b = atu.translate(5 * BLOCK_SIZE + 100)
        assert a.line_index == b.line_index
        assert a.tag == b.tag

    def test_zero_lines_rejected_on_translate(self):
        atu = AddressTranslationUnit(num_lines=0)
        with pytest.raises(ValueError):
            atu.translate(0)


class TestSharedMemoryCache:
    def test_reserves_unused_space_via_smmt(self, shared_memory):
        shared_memory.smmt.allocate("cta:0", 16 * 1024)
        cache = SharedMemoryCache(shared_memory)
        assert shared_memory.smmt.find("ciao") is not None
        # Tag overhead: strictly fewer data lines than raw capacity / 128.
        assert cache.num_lines < (32 * 1024) // BLOCK_SIZE
        assert cache.num_lines > 0

    def test_release_returns_space(self, shared_memory):
        SharedMemoryCache(shared_memory)
        assert shared_memory.smmt.unused_bytes() < shared_memory.capacity_bytes
        # The cache's whole reservation is its one SMMT entry.
        shared_memory.smmt.free("ciao")
        assert shared_memory.smmt.unused_bytes() == shared_memory.capacity_bytes

    def test_over_reservation_rejected(self, shared_memory):
        with pytest.raises(MemoryError):
            SharedMemoryCache(shared_memory, reserve_bytes=64 * 1024)

    def test_miss_then_fill_then_hit(self, shared_memory):
        cache = SharedMemoryCache(shared_memory)
        access = cache.access(0x1000, wid=1, is_write=False, now=0)
        assert not access.hit
        cache.fill(access.block, now=5)
        access2 = cache.access(0x1000, wid=1, is_write=False, now=6)
        assert access2.hit and not access2.reserved_pending
        assert cache.contains(0x1000)

    def test_direct_mapped_conflict_reports_eviction(self, shared_memory):
        cache = SharedMemoryCache(shared_memory)
        conflicting = (cache.num_lines) * BLOCK_SIZE  # same line index as block 0
        first = cache.access(0, wid=1, is_write=False, now=0)
        cache.fill(first.block, 1)
        second = cache.access(conflicting, wid=2, is_write=False, now=2)
        assert not second.hit
        assert second.evicted_block == 0
        assert second.evicted_owner == 1

    def test_zero_capacity_degenerates_to_misses(self):
        shmem = SharedMemory(48 * 1024)
        shmem.smmt.allocate("cta:0", 48 * 1024)
        cache = SharedMemoryCache(shmem)
        assert cache.num_lines == 0
        access = cache.access(0x2000, wid=0, is_write=False, now=0)
        assert not access.hit
        assert not cache.contains(0x2000)

    def test_stats_and_occupancy(self, shared_memory):
        cache = SharedMemoryCache(shared_memory)
        a = cache.access(0, wid=0, is_write=False, now=0)
        cache.fill(a.block, 1)
        cache.access(0, wid=0, is_write=False, now=2)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert 0 < cache.occupancy() <= 1

    def test_invalidate_all(self, shared_memory):
        cache = SharedMemoryCache(shared_memory)
        a = cache.access(0, wid=0, is_write=False, now=0)
        cache.fill(a.block, 1)
        cache.invalidate_all()
        assert not cache.contains(0)

    def test_utilisation_rows_touched(self, shared_memory):
        cache = SharedMemoryCache(shared_memory)
        cache.access(0, wid=0, is_write=False, now=0)
        assert shared_memory.utilization() > 0
