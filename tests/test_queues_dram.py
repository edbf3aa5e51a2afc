"""Unit tests for the DRAM model, interconnect and memory subsystem."""

import pytest

from repro.mem.dram import DRAMConfig, DRAMModel
from repro.mem.interconnect import Interconnect, InterconnectConfig, L2Slice
from repro.mem.subsystem import MemorySubsystem, MemorySubsystemConfig


class TestDRAM:
    def test_latency_floor(self):
        dram = DRAMModel(DRAMConfig())
        completion = dram.service(block=0, now=100)
        assert completion >= 100 + dram.config.access_latency

    def test_bandwidth_queueing(self):
        config = DRAMConfig(bytes_per_cycle=16.0, num_channels=1)
        dram = DRAMModel(config)
        first = dram.service(block=0, now=0)
        second = dram.service(block=1, now=0)
        assert second > first  # second request waits for the channel

    def test_channel_interleaving_avoids_queueing(self):
        config = DRAMConfig(num_channels=2)
        dram = DRAMModel(config)
        a = dram.service(block=0, now=0)
        b = dram.service(block=1, now=0)  # different channel
        assert abs(a - b) < dram.burst_cycles()

    def test_scaled_bandwidth(self):
        base = DRAMConfig()
        double = base.scaled_bandwidth(2.0)
        assert double.bytes_per_cycle == pytest.approx(2 * base.bytes_per_cycle)

    def test_utilization_and_backlog(self):
        dram = DRAMModel(DRAMConfig(bytes_per_cycle=16.0, num_channels=1))
        for block in range(10):
            dram.service(block, now=0)
        assert dram.utilization(100) > 0
        assert dram.stats.requests == 10
        # The backlog delays a further request past an idle channel's latency.
        idle = dram.burst_cycles() + dram.config.access_latency
        assert dram.service(10, now=0) > idle

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DRAMModel(DRAMConfig(num_channels=0))
        with pytest.raises(ValueError):
            DRAMModel(DRAMConfig(bytes_per_cycle=0))


class TestInterconnectAndL2:
    def test_injection_adds_latency(self):
        icnt = Interconnect(InterconnectConfig(latency=50))
        arrival = icnt.inject(now=10)
        assert arrival >= 60

    def test_injection_serialization(self):
        icnt = Interconnect(InterconnectConfig(latency=0, bytes_per_cycle=16.0))
        a = icnt.inject(now=0)
        b = icnt.inject(now=0)
        assert b > a

    def test_l2_hit_faster_than_miss(self):
        slice_ = L2Slice()
        miss_time = slice_.access(block=1, wid=0, now=0)
        slice_.cache.fill(1, miss_time)
        hit_time = slice_.access(block=1, wid=0, now=miss_time + 1) - (miss_time + 1)
        assert hit_time < miss_time

    def test_memory_subsystem_read_and_write(self):
        mem = MemorySubsystem(MemorySubsystemConfig.gtx480(), num_sms=2)
        ready = mem.read_block(sm_id=0, block=10, wid=0, now=0)
        assert ready > 0
        mem.write_block(sm_id=1, block=11, wid=0, now=0)
        assert mem.l2.cache.stats.accesses >= 2
        assert 0.0 <= mem.dram_utilization(max(1, ready)) <= 1.0

    def test_memory_subsystem_validation(self):
        with pytest.raises(ValueError):
            MemorySubsystem(num_sms=0)
