"""Unit tests for the machine configuration (Table I and Fig. 12 variants)."""

import pytest

from repro.api import RunConfig, SimulationRequest
from repro.backends import materialize
from repro.gpu.config import GPUConfig
from repro.mem.dram import DRAMConfig


class TestGPUConfig:
    def test_table1_defaults(self):
        config = GPUConfig.gtx480()
        assert config.chip_sms == 15
        assert config.max_threads_per_sm == 1536
        assert config.max_warps_per_sm == 48
        assert config.warp_size == 32
        assert config.l1d.size_bytes == 16 * 1024
        assert config.shared_memory_bytes == 48 * 1024
        assert config.l2.size_bytes == 768 * 1024
        assert config.vta.entries_per_warp == 8
        assert config.vta.num_warps == 48

    def test_validation(self):
        GPUConfig.gtx480().validate()
        with pytest.raises(ValueError):
            GPUConfig(num_sms=0).validate()
        with pytest.raises(ValueError):
            GPUConfig(issue_width=0).validate()
        with pytest.raises(ValueError):
            GPUConfig(max_threads_per_sm=1000).validate()  # not multiple of 32

    def test_fig12a_large_l1d_variant(self):
        config = GPUConfig.gtx480_large_l1d()
        assert config.l1d.size_bytes == 48 * 1024
        assert config.shared_memory_bytes == 16 * 1024

    def test_fig12a_8way_variant(self):
        config = GPUConfig.gtx480_8way_l1d()
        assert config.l1d.associativity == 8
        assert config.l1d.size_bytes == 16 * 1024

    def test_fig12b_2x_dram_variant(self):
        """Figure 12b's run configuration doubles the machine's DRAM bandwidth."""

        def dram_bytes_per_cycle(**overrides) -> float:
            request = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02, **overrides))
            _, _, gpu, _ = materialize(request)
            return gpu.memory.l2.dram.config.bytes_per_cycle

        assert dram_bytes_per_cycle(dram_bandwidth_scale=2.0) == pytest.approx(
            2 * dram_bytes_per_cycle()
        )

    def test_with_overrides(self):
        config = GPUConfig.gtx480().with_overrides(num_sms=2)
        assert config.num_sms == 2
        # original untouched
        assert GPUConfig.gtx480().num_sms == 1
