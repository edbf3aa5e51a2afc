"""Unit tests for the Victim Tag Array."""

import pytest

from repro.mem.victim_tag_array import VTAConfig, VictimTagArray


@pytest.fixture
def vta():
    return VictimTagArray(VTAConfig(entries_per_warp=4, num_warps=8))


class TestVTA:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            VictimTagArray(VTAConfig(entries_per_warp=0))
        with pytest.raises(ValueError):
            VictimTagArray(VTAConfig(num_warps=0))

    def test_probe_miss_on_empty(self, vta):
        assert vta.probe(0, 123) is None
        assert vta.occupancy(0) == 0

    def test_eviction_then_probe_hit(self, vta):
        vta.record_eviction(owner_wid=2, block=100, evictor_wid=5)
        hit = vta.probe(2, 100)
        assert hit is not None
        assert hit.wid == 2
        assert hit.evictor_wid == 5
        assert hit.block == 100

    def test_hit_is_consumed_by_default(self, vta):
        vta.record_eviction(owner_wid=2, block=100, evictor_wid=5)
        assert vta.probe(2, 100) is not None
        assert vta.probe(2, 100) is None

    def test_probe_without_consume(self, vta):
        vta.record_eviction(owner_wid=2, block=100, evictor_wid=5)
        assert vta.probe(2, 100, consume=False) is not None
        assert vta.probe(2, 100) is not None

    def test_other_warps_do_not_hit(self, vta):
        vta.record_eviction(owner_wid=2, block=100, evictor_wid=5)
        assert vta.probe(3, 100) is None

    def test_fifo_capacity(self, vta):
        for block in range(10):
            vta.record_eviction(owner_wid=1, block=block, evictor_wid=0)
        assert vta.occupancy(1) == 4
        # Oldest entries displaced.
        assert vta.probe(1, 0) is None
        assert vta.probe(1, 9) is not None

    def test_refresh_updates_evictor_without_duplication(self, vta):
        vta.record_eviction(owner_wid=1, block=5, evictor_wid=2)
        vta.record_eviction(owner_wid=1, block=5, evictor_wid=7)
        assert vta.occupancy(1) == 1
        hit = vta.probe(1, 5)
        assert hit.evictor_wid == 7

    def test_clear(self, vta):
        vta.record_eviction(owner_wid=4, block=1, evictor_wid=0)
        vta.clear()
        assert vta.probe(4, 1) is None

    def test_storage_bits(self, vta):
        # 4 entries x 8 warps x (25 + 6) bits
        assert vta.storage_bits() == 4 * 8 * 31
