"""SM <-> L2 interconnect and the L2 slice model.

The interconnect adds a fixed traversal latency each way plus a simple
injection-bandwidth limit per SM.  The L2 slice wraps the shared L2 cache and
the DRAM model and answers the only question the SM-side code needs: *when
does this request's data come back?*

The model is intentionally latency/bandwidth-accurate rather than
flit-accurate; the paper's mechanisms live entirely on the SM side and only
need a realistic (and congestible) downstream latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAMConfig, DRAMModel


@dataclass
class InterconnectConfig:
    """Latency / bandwidth of the SM-to-L2 interconnect."""

    #: One-way traversal latency in core cycles.  Fermi-class L1-miss-to-L2
    #: round trips are measured at well over 200 cycles; 100 cycles each way
    #: plus the L2 access reproduces that.
    latency: int = 100
    bytes_per_cycle: float = 32.0  # injection bandwidth per SM


class Interconnect:
    """Per-SM injection port with a fixed traversal latency."""

    def __init__(self, config: InterconnectConfig | None = None) -> None:
        self.config = config or InterconnectConfig()
        self._port_free_at = 0.0
        self.packets = 0

    def inject(self, now: int, size_bytes: int = 128) -> int:
        """Inject one packet at ``now``; returns its arrival time at L2."""
        serialization = size_bytes / self.config.bytes_per_cycle
        start = max(float(now), self._port_free_at)
        self._port_free_at = start + serialization
        self.packets += 1
        return int(start + serialization + self.config.latency)

    def return_latency(self) -> int:
        """Latency of the response path back to the SM."""
        return self.config.latency


class L2Slice:
    """The shared L2 cache backed by DRAM.

    ``access`` returns the absolute completion cycle of a read, or the
    posting cycle of a write, as seen at the L2 (the caller adds the return
    interconnect latency).
    """

    def __init__(
        self,
        cache_config: CacheConfig | None = None,
        dram_config: DRAMConfig | None = None,
    ) -> None:
        self.cache = Cache(cache_config or CacheConfig.l2_gtx480())
        self.dram = DRAMModel(dram_config or DRAMConfig.gtx480())
        self._port_free_at = 0.0
        #: L2 can accept one 128-byte access per ``port_cycles`` cycles.
        self.port_cycles = 2.0

    def access(
        self, block: int, wid: int, now: int, *, is_write: bool = False, requester: int = -1
    ) -> int:
        """Access the L2 for one 128-byte block; returns data-ready cycle.

        ``requester`` is the originating SM id (-1 when unknown); it is
        forwarded to the DRAM model's inter-requester contention accounting.
        """
        start = max(float(now), self._port_free_at)
        self._port_free_at = start + self.port_cycles
        byte_address = self.cache.mapping.block_to_byte(block)
        result = self.cache.access(byte_address, wid, is_write=is_write, now=int(start))
        ready = int(start) + self.cache.hit_latency
        if result.is_miss:
            ready = self.dram.service(block, ready, is_write=is_write, requester=requester)
            self.cache.fill(block, ready)
        if result.writeback_block is not None:
            # Dirty L2 victim: consumes DRAM bandwidth but is off the critical path.
            self.dram.service(result.writeback_block, int(start), is_write=True, requester=requester)
        return ready

    @property
    def hit_rate(self) -> float:
        """L2 hit rate so far."""
        return self.cache.stats.hit_rate
