"""Unit tests for shared memory and the SMMT."""

import pytest

from repro.mem.shared_memory import SharedMemory, SharedMemoryManagementTable


class TestSMMT:
    def test_allocate_and_unused(self):
        smmt = SharedMemoryManagementTable(48 * 1024)
        entry = smmt.allocate("cta:0", 16 * 1024)
        assert entry.base == 0
        assert entry.size == 16 * 1024
        assert smmt.unused_bytes() == 32 * 1024

    def test_allocations_do_not_overlap(self):
        smmt = SharedMemoryManagementTable(48 * 1024)
        a = smmt.allocate("cta:0", 1024)
        b = smmt.allocate("cta:1", 2048)
        assert b.base >= a.end

    def test_exhaustion_raises(self):
        smmt = SharedMemoryManagementTable(1024)
        smmt.allocate("cta:0", 1024)
        with pytest.raises(MemoryError):
            smmt.allocate("cta:1", 1)

    def test_free_returns_bytes(self):
        smmt = SharedMemoryManagementTable(4096)
        smmt.allocate("cta:0", 1024)
        smmt.allocate("ciao", 2048)
        assert smmt.free("cta:0") == 1024
        assert smmt.unused_bytes() == 4096 - 2048

    def test_find(self):
        smmt = SharedMemoryManagementTable(4096)
        smmt.allocate("ciao", 512)
        assert smmt.find("ciao") is not None
        assert smmt.find("cta:9") is None

    def test_negative_and_invalid(self):
        smmt = SharedMemoryManagementTable(4096)
        with pytest.raises(ValueError):
            smmt.allocate("x", -1)
        with pytest.raises(ValueError):
            SharedMemoryManagementTable(0)


class TestSharedMemory:
    def test_geometry(self):
        shmem = SharedMemory(48 * 1024)
        assert shmem.NUM_BANKS == 32
        assert shmem.row_bytes == 256
        assert shmem.num_rows == 192

    def test_conflict_free_access_is_one_cycle(self):
        shmem = SharedMemory()
        offsets = [lane * 8 for lane in range(32)]  # one word per bank
        assert shmem.access(offsets) == 1

    def test_bank_conflicts_serialize(self):
        shmem = SharedMemory()
        offsets = [0, 256, 512, 768]  # all map to bank 0
        assert shmem.access(offsets) == 4

    def test_out_of_range_raises(self):
        shmem = SharedMemory(1024)
        with pytest.raises(ValueError):
            shmem.access([2048])

    def test_empty_access(self):
        shmem = SharedMemory()
        assert shmem.access([]) == 0

    def test_utilization_tracks_rows(self):
        shmem = SharedMemory(48 * 1024)
        assert shmem.utilization() == 0.0
        shmem.access([0])
        shmem.access([shmem.row_bytes * 3])
        assert shmem.utilization() == pytest.approx(2 / shmem.num_rows)
