"""Machine configuration (Table I of the paper).

:class:`GPUConfig` aggregates every architectural knob the experiments vary:
the number of SMs, warp/CTA limits, the L1D and L2 geometries, shared-memory
capacity, DRAM bandwidth, MSHR capacity and VTA geometry.  Named
constructors provide the baseline GTX 480 configuration plus the Figure 12
variants (larger L1D, higher associativity, doubled DRAM bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.mem.cache import CacheConfig
from repro.mem.dram import DRAMConfig
from repro.mem.interconnect import InterconnectConfig
from repro.mem.victim_tag_array import VTAConfig


@dataclass
class GPUConfig:
    """Full machine configuration for a simulation run."""

    # --- SM organisation (Table I: 15 SMs, max 1536 threads per SM) -------
    num_sms: int = 1
    #: Number of SMs on the modelled chip.  When ``num_sms < chip_sms`` the
    #: simulated SMs receive their fair share of the chip's L2 capacity and
    #: DRAM bandwidth, so a single-SM simulation still sees GTX 480-like
    #: per-SM memory pressure.
    chip_sms: int = 15
    warp_size: int = 32
    max_threads_per_sm: int = 1536
    max_ctas_per_sm: int = 8
    issue_width: int = 1

    # --- on-chip memory ----------------------------------------------------
    l1d: CacheConfig = field(default_factory=CacheConfig.l1d_gtx480)
    shared_memory_bytes: int = 48 * 1024
    mshr_entries: int = 32
    mshr_max_merged: int = 8
    #: Outstanding load transactions one warp may have in flight before it
    #: stalls.  Models the memory-level parallelism of independent loads in a
    #: warp's instruction window (loop-unrolled kernels routinely keep
    #: several loads outstanding before a use blocks them).
    max_outstanding_loads_per_warp: int = 4

    # --- off-chip memory ---------------------------------------------------
    l2: CacheConfig = field(default_factory=CacheConfig.l2_gtx480)
    dram: DRAMConfig = field(default_factory=DRAMConfig.gtx480)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)

    # --- interference detection substrate ----------------------------------
    vta: VTAConfig = field(default_factory=VTAConfig)

    # --- simulation control -------------------------------------------------
    max_cycles: int = 2_000_000
    #: Sampling period (in issued instructions) of the time-series stats.
    timeseries_sample_instructions: int = 500

    @property
    def max_warps_per_sm(self) -> int:
        """Maximum resident warps per SM (1536 threads / 32 lanes = 48)."""
        return self.max_threads_per_sm // self.warp_size

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` when broken."""
        if self.num_sms <= 0:
            raise ValueError("need at least one SM")
        if self.warp_size <= 0 or self.max_threads_per_sm % self.warp_size:
            raise ValueError("max_threads_per_sm must be a multiple of warp_size")
        if self.issue_width <= 0:
            raise ValueError("issue width must be positive")
        self.l1d.validate()
        self.l2.validate()
        if self.shared_memory_bytes < 0:
            raise ValueError("shared memory size cannot be negative")

    # ------------------------------------------------------------------
    # Named configurations used by the evaluation section.
    # ------------------------------------------------------------------
    @classmethod
    def gtx480(cls, *, num_sms: int = 1) -> "GPUConfig":
        """Baseline configuration of Table I (16 KB L1D / 48 KB shared)."""
        return cls(num_sms=num_sms)

    @classmethod
    def gtx480_large_l1d(cls, *, num_sms: int = 1) -> "GPUConfig":
        """GTO-cap variant of Fig. 12a: 48 KB L1D, 16 KB shared memory."""
        return cls(
            num_sms=num_sms,
            l1d=CacheConfig.l1d_gtx480(size_kb=48),
            shared_memory_bytes=16 * 1024,
        )

    @classmethod
    def gtx480_8way_l1d(cls, *, num_sms: int = 1) -> "GPUConfig":
        """GTO-8way variant of Fig. 12a: 8-way 16 KB L1D."""
        return cls(num_sms=num_sms, l1d=CacheConfig.l1d_gtx480(associativity=8))

    def with_overrides(self, **kwargs: object) -> "GPUConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
