"""Unit tests for the MSHR file."""

import pytest

from repro.mem.mshr import MSHRFile


@pytest.fixture
def mshr():
    return MSHRFile(num_entries=4, max_merged=2)


class TestMSHR:
    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            MSHRFile(num_entries=0)
        with pytest.raises(ValueError):
            MSHRFile(max_merged=0)

    def test_allocate_new_entry(self, mshr):
        entry, is_new = mshr.allocate(100, 1)
        assert is_new and entry is not None
        assert entry.block == 100
        assert entry.targets == [1]
        assert mshr.occupancy == 1

    def test_merge_same_block(self, mshr):
        mshr.allocate(100, 1)
        entry, is_new = mshr.allocate(100, 2)
        assert not is_new
        assert entry.num_targets == 2
        assert entry.targets == [1, 2]
        assert mshr.occupancy == 1

    def test_merge_limit(self, mshr):
        mshr.allocate(100, 1)
        mshr.allocate(100, 2)
        entry, is_new = mshr.allocate(100, 3)
        assert entry is None and not is_new
        assert mshr.lookup(100).targets == [1, 2]

    def test_capacity_limit(self, mshr):
        for block in range(4):
            mshr.allocate(block, 0)
        entry, _ = mshr.allocate(99, 0)
        assert entry is None
        assert mshr.occupancy == 4
        entry, is_new = mshr.allocate(0, 1)  # existing block still mergeable
        assert entry is not None and not is_new
        assert mshr.occupancy == 4

    def test_fill_releases_entry(self, mshr):
        mshr.allocate(100, 1)
        entry = mshr.fill(100)
        assert entry is not None
        assert entry.targets == [1]
        assert mshr.occupancy == 0
        assert mshr.fill(100) is None

    def test_outstanding_for_warp(self, mshr):
        mshr.allocate(1, 3)
        mshr.allocate(2, 3)
        mshr.allocate(3, 4)

        def outstanding_for(wid):
            return sum(wid in mshr.lookup(b).targets for b in mshr.outstanding_blocks())

        assert outstanding_for(3) == 2
        assert outstanding_for(4) == 1
        assert outstanding_for(9) == 0

    def test_outstanding_blocks_order(self, mshr):
        mshr.allocate(5, 0)
        mshr.allocate(6, 0)
        assert mshr.outstanding_blocks() == [5, 6]
