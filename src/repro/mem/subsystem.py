"""Memory subsystem shared by all SMs: interconnect + L2 + DRAM.

One :class:`MemorySubsystem` instance is shared by every SM in a simulation.
It provides a single call, :meth:`read_block` / :meth:`write_block`, that
resolves when a 128-byte transaction's data is available back at the SM,
including interconnect traversal, L2 lookup, DRAM queueing and the response
path.  It also exposes the DRAM utilisation signal statPCAL consults to
decide whether bypassed warps may proceed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.cache import CacheConfig
from repro.mem.dram import DRAMConfig
from repro.mem.interconnect import Interconnect, InterconnectConfig, L2Slice


@dataclass
class MemorySubsystemConfig:
    """Configuration of the shared (off-SM) memory system."""

    l2: CacheConfig | None = None
    dram: DRAMConfig | None = None
    interconnect: InterconnectConfig | None = None

    @classmethod
    def gtx480(cls) -> "MemorySubsystemConfig":
        """Baseline configuration (Fig. 12b scales DRAM bandwidth through
        ``RunConfig.dram_bandwidth_scale`` instead)."""
        return cls(
            l2=CacheConfig.l2_gtx480(),
            dram=DRAMConfig.gtx480(),
            interconnect=InterconnectConfig(),
        )


class MemorySubsystem:
    """Shared L2 + DRAM behind per-SM interconnect ports."""

    def __init__(self, config: MemorySubsystemConfig | None = None, num_sms: int = 1) -> None:
        self.config = config or MemorySubsystemConfig.gtx480()
        if num_sms <= 0:
            raise ValueError("need at least one SM")
        self.num_sms = num_sms
        self.l2 = L2Slice(self.config.l2, self.config.dram)
        self._ports = [Interconnect(self.config.interconnect) for _ in range(num_sms)]

    # ------------------------------------------------------------------
    def read_block(self, sm_id: int, block: int, wid: int, now: int) -> int:
        """Fetch one block for SM ``sm_id``; returns the fill-arrival cycle."""
        port = self._ports[sm_id]
        arrival_at_l2 = port.inject(now)
        data_ready_at_l2 = self.l2.access(
            block, wid, arrival_at_l2, is_write=False, requester=sm_id
        )
        return data_ready_at_l2 + port.return_latency()

    def write_block(self, sm_id: int, block: int, wid: int, now: int) -> int:
        """Post one write-through store; returns its L2 completion cycle."""
        port = self._ports[sm_id]
        arrival_at_l2 = port.inject(now)
        return self.l2.access(block, wid, arrival_at_l2, is_write=True, requester=sm_id)

    # ------------------------------------------------------------------
    def dram_utilization(self, elapsed_cycles: int) -> float:
        """DRAM bandwidth utilisation (the statPCAL bypass signal)."""
        return self.l2.dram.utilization(elapsed_cycles)

    @property
    def l2_hit_rate(self) -> float:
        """L2 hit rate so far."""
        return self.l2.hit_rate

    @property
    def inter_sm_dram_conflicts(self) -> int:
        """DRAM requests that queued behind a different SM's burst."""
        return self.l2.dram.stats.inter_requester_conflicts

    @property
    def inter_sm_dram_conflicts_by_sm(self) -> dict[int, int]:
        """The same conflicts keyed by the suffering SM (sums to the total)."""
        return dict(self.l2.dram.stats.conflicts_by_requester)
