"""GDDR5 DRAM latency / bandwidth model.

Table I configures GDDR5 with 16 banks, tCL=12, tRCD=12, tRAS=28; the GTX 480
baseline the paper models has ~177 GB/s of DRAM bandwidth, and Figure 12b
evaluates a doubled-bandwidth (340 GB/s) variant.

The model is deliberately first-order but captures the two properties the
paper's arguments rely on:

* a long fixed access latency (row activate + CAS + transfer), which is why
  statPCAL's L1-bypassing requests "still suffer from long DRAM delay", and
* a finite service bandwidth shared by all SMs, modelled as a small number of
  channels each of which can stream one 128-byte burst at a time.  When
  requests arrive faster than the channels can drain them, queueing delay
  grows -- this is what makes thrashing workloads collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DRAMConfig:
    """DRAM timing/bandwidth parameters (in SM core cycles)."""

    #: Fixed access latency (row activate + CAS + transfer + controller
    #: queues), in core cycles beyond the L2.  Fermi-class DRAM round trips
    #: are in the 400-600 cycle range including the interconnect.
    access_latency: int = 300
    #: Peak bandwidth in bytes per core cycle across all channels.
    #: 177 GB/s at the 1.4 GHz shader clock is ~126 B/cycle; rounded to 128.
    #: This is the *whole-chip* bandwidth; simulations that model fewer SMs
    #: than the chip has scale it down to the fair share (see
    #: :class:`repro.gpu.gpu.GPU`).
    bytes_per_cycle: float = 128.0
    #: Number of independent channels (burst engines).
    num_channels: int = 6
    #: Number of banks per channel (only used for address interleaving).
    banks_per_channel: int = 16
    #: Burst (transaction) size in bytes.
    burst_bytes: int = 128

    def scaled_bandwidth(self, factor: float) -> "DRAMConfig":
        """Return a copy with bandwidth scaled by ``factor`` (Fig. 12b)."""
        return DRAMConfig(
            access_latency=self.access_latency,
            bytes_per_cycle=self.bytes_per_cycle * factor,
            num_channels=self.num_channels,
            banks_per_channel=self.banks_per_channel,
            burst_bytes=self.burst_bytes,
        )

    @classmethod
    def gtx480(cls) -> "DRAMConfig":
        """Baseline GTX 480-like DRAM (177 GB/s class)."""
        return cls()


@dataclass
class DRAMStats:
    """DRAM service statistics."""

    requests: int = 0
    busy_cycles: float = 0.0
    #: Requests that queued behind a burst issued by a *different* requester
    #: (SM).  This is the inter-SM DRAM contention signal the lock-step
    #: backend surfaces; it stays zero for single-SM simulations.
    inter_requester_conflicts: int = 0
    #: The same conflicts broken down by the *suffering* requester (the SM
    #: whose request queued).  Sums to ``inter_requester_conflicts``; the
    #: multi-tenant driver attributes each tenant its partition's share.
    conflicts_by_requester: dict[int, int] = field(default_factory=dict)


class DRAMModel:
    """Channel-interleaved DRAM service model.

    :meth:`service` returns the absolute cycle at which a 128-byte request
    issued at ``now`` completes, accounting for per-channel queueing.
    """

    def __init__(self, config: DRAMConfig | None = None) -> None:
        self.config = config or DRAMConfig()
        if self.config.num_channels <= 0:
            raise ValueError("DRAM needs at least one channel")
        if self.config.bytes_per_cycle <= 0:
            raise ValueError("DRAM bandwidth must be positive")
        self._channel_free_at = [0.0] * self.config.num_channels
        self._channel_last_requester = [-1] * self.config.num_channels
        self.stats = DRAMStats()

    # ------------------------------------------------------------------
    def _channel_of(self, block: int) -> int:
        """Interleave blocks across channels."""
        return block % self.config.num_channels

    def burst_cycles(self) -> float:
        """Cycles one channel needs to stream one burst."""
        per_channel_bw = self.config.bytes_per_cycle / self.config.num_channels
        return self.config.burst_bytes / per_channel_bw

    def service(
        self, block: int, now: int, *, is_write: bool = False, requester: int = -1
    ) -> int:
        """Schedule one 128-byte request; returns its completion cycle.

        Writes occupy channel bandwidth but complete (from the requester's
        point of view) after posting, which the caller models by ignoring the
        returned time for stores.  ``requester`` identifies the SM the
        request came from (-1 when unknown) and only feeds the
        inter-requester contention counter.
        """
        channel = self._channel_of(block)
        burst = self.burst_cycles()
        start = max(float(now), self._channel_free_at[channel])
        queue_delay = start - now
        previous = self._channel_last_requester[channel]
        if queue_delay > 0 and requester >= 0 and previous >= 0 and previous != requester:
            self.stats.inter_requester_conflicts += 1
            self.stats.conflicts_by_requester[requester] = (
                self.stats.conflicts_by_requester.get(requester, 0) + 1
            )
        self._channel_last_requester[channel] = requester
        self._channel_free_at[channel] = start + burst
        completion = start + burst + self.config.access_latency
        self.stats.requests += 1
        self.stats.busy_cycles += burst
        return int(completion)

    # ------------------------------------------------------------------
    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of total channel-cycles spent bursting data."""
        if elapsed_cycles <= 0:
            return 0.0
        total_capacity = elapsed_cycles * self.config.num_channels
        return min(1.0, self.stats.busy_cycles / total_capacity)
