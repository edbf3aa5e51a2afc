"""Statistics collection for simulation runs.

:class:`SMStats` aggregates everything the paper's figures report:

* IPC (instructions per cycle) -- both warp-instruction IPC and thread-level
  IPC (warp IPC x 32), the latter being comparable in magnitude to the
  GPGPU-Sim numbers the paper plots.
* L1D hit rate, shared-memory-cache hit rate, shared-memory utilisation.
* Interference: VTA hits in total, per warp, and as a pairwise
  (interfered warp, interfering warp) matrix -- the raw data behind
  Figures 1a, 4a and 4b.
* Time series of dynamic IPC, number of active warps, and interference
  intensity, sampled every N issued instructions -- the data behind
  Figures 9 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TimeSeries:
    """A sampled time series keyed by cumulative issued instructions."""

    instructions: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, instruction_count: int, value: float) -> None:
        """Add one sample."""
        self.instructions.append(instruction_count)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def as_pairs(self) -> list[tuple[int, float]]:
        """Return ``[(instruction_count, value), ...]``."""
        return list(zip(self.instructions, self.values))

    def mean(self) -> float:
        """Mean of the sampled values (0.0 when empty)."""
        return sum(self.values) / len(self.values) if self.values else 0.0


@dataclass
class StallBreakdown:
    """Why issue slots were lost."""

    no_issuable_warp: int = 0
    mshr_full: int = 0
    reservation_fail: int = 0
    queue_full: int = 0

    @property
    def total(self) -> int:
        """Total counted stall events."""
        return (
            self.no_issuable_warp
            + self.mshr_full
            + self.reservation_fail
            + self.queue_full
        )


@dataclass
class SMStats:
    """Per-SM statistics for one simulation."""

    warp_size: int = 32

    cycles: int = 0
    instructions_issued: int = 0
    global_memory_instructions: int = 0
    shared_memory_instructions: int = 0
    barriers_executed: int = 0
    warps_retired: int = 0

    per_warp_instructions: dict[int, int] = field(default_factory=dict)

    # interference bookkeeping -------------------------------------------------
    vta_hits: int = 0
    per_warp_vta_hits: dict[int, int] = field(default_factory=dict)
    #: interference_matrix[interfered_wid][interfering_wid] = count
    interference_matrix: dict[int, dict[int, int]] = field(default_factory=dict)

    # redirection / throttling bookkeeping -------------------------------------
    redirected_accesses: int = 0
    migrations_l1_to_shared: int = 0
    throttle_events: int = 0
    reactivate_events: int = 0
    bypassed_accesses: int = 0

    stalls: StallBreakdown = field(default_factory=StallBreakdown)

    # time series ---------------------------------------------------------------
    ipc_series: TimeSeries = field(default_factory=TimeSeries)
    active_warp_series: TimeSeries = field(default_factory=TimeSeries)
    interference_series: TimeSeries = field(default_factory=TimeSeries)

    # filled in at the end of a run ---------------------------------------------
    l1d_hit_rate: float = 0.0
    l1d_hits: int = 0
    l1d_misses: int = 0
    shared_cache_hit_rate: float = 0.0
    shared_cache_accesses: int = 0
    shared_memory_utilization: float = 0.0
    l2_hit_rate: float = 0.0
    dram_requests: int = 0

    # ------------------------------------------------------------------
    @property
    def warp_ipc(self) -> float:
        """Warp instructions issued per cycle."""
        return self.instructions_issued / self.cycles if self.cycles else 0.0

    @property
    def ipc(self) -> float:
        """Thread-level IPC (warp IPC x warp size), comparable to the paper."""
        return self.warp_ipc * self.warp_size

    def record_issue(self, wid: int) -> None:
        """Count one issued warp instruction."""
        self.instructions_issued += 1
        self.per_warp_instructions[wid] = self.per_warp_instructions.get(wid, 0) + 1

    def record_vta_hit(self, interfered_wid: int, interfering_wid: int) -> None:
        """Count one detected lost-locality (interference) event."""
        self.vta_hits += 1
        self.per_warp_vta_hits[interfered_wid] = (
            self.per_warp_vta_hits.get(interfered_wid, 0) + 1
        )
        row = self.interference_matrix.setdefault(interfered_wid, {})
        row[interfering_wid] = row.get(interfering_wid, 0) + 1

    # ------------------------------------------------------------------
    def interference_pairs(self) -> list[tuple[int, int, int]]:
        """Flattened ``(interfered, interferer, count)`` triples, descending."""
        triples = [
            (victim, aggressor, count)
            for victim, row in self.interference_matrix.items()
            for aggressor, count in row.items()
        ]
        return sorted(triples, key=lambda t: t[2], reverse=True)

    def interference_extremes(self) -> tuple[int, int]:
        """Per-warp (min, max) interference frequency, over warps with any.

        This is the statistic plotted in Figure 4b: for each warp the most-
        and least-frequent interferer counts; we report the global min and
        max across warps.
        """
        maxima: list[int] = []
        minima: list[int] = []
        for row in self.interference_matrix.values():
            if not row:
                continue
            counts = list(row.values())
            maxima.append(max(counts))
            minima.append(min(counts))
        if not maxima:
            return (0, 0)
        return (min(minima), max(maxima))

    def summary(self) -> dict[str, float]:
        """Compact dictionary of the headline metrics."""
        return {
            "cycles": float(self.cycles),
            "instructions": float(self.instructions_issued),
            "ipc": self.ipc,
            "warp_ipc": self.warp_ipc,
            "l1d_hit_rate": self.l1d_hit_rate,
            "shared_cache_hit_rate": self.shared_cache_hit_rate,
            "shared_memory_utilization": self.shared_memory_utilization,
            "l2_hit_rate": self.l2_hit_rate,
            "vta_hits": float(self.vta_hits),
            "mean_active_warps": self.active_warp_series.mean(),
            "redirected_accesses": float(self.redirected_accesses),
            "throttle_events": float(self.throttle_events),
            "bypassed_accesses": float(self.bypassed_accesses),
        }


@dataclass
class TenantStats:
    """Per-tenant statistics of one multi-tenant (co-located) simulation.

    A *tenant* is one kernel occupying a subset of the machine's SMs (see
    :class:`repro.api.TenantSpec`).  ``stats`` merges the tenant's per-SM
    statistics exactly like the machine-level merge, so ``stats.ipc`` is the
    tenant's thread IPC over its own partition.
    """

    name: str
    benchmark: str = ""
    scheduler: str = ""
    sm_ids: tuple[int, ...] = ()
    stats: SMStats = field(default_factory=SMStats)
    #: Global cycle at which the tenant's last SM drained (== ``stats.cycles``
    #: unless the run hit the cycle budget).
    finish_cycle: int = 0
    #: Global cycle at which the tenant's kernel launched (0 for the
    #: simultaneous-launch path).  ``finish_cycle - launch_cycle`` is the
    #: tenant's busy span, the quantity slowdown metrics compare.
    launch_cycle: int = 0
    #: DRAM requests from this tenant's SMs that queued behind a burst of a
    #: *different SM*.  Attribution is per suffering requester SM, so for a
    #: tenant owning several SMs this includes conflicts against its own
    #: sibling SMs (intra-tenant contention), not only against neighbours.
    inter_sm_dram_conflicts: int = 0

    @property
    def ipc(self) -> float:
        """Thread-level IPC of the tenant over its own SM partition."""
        return self.stats.ipc

    def summary(self) -> dict[str, float]:
        """Headline per-tenant metrics (CLI / experiment reporting)."""
        return {
            "cycles": float(self.finish_cycle),
            "instructions": float(self.stats.instructions_issued),
            "ipc": self.ipc,
            "l1d_hit_rate": self.stats.l1d_hit_rate,
            "inter_sm_dram_conflicts": float(self.inter_sm_dram_conflicts),
        }


def merge_stats(stats_list: list[SMStats]) -> SMStats:
    """Merge per-SM stats into a machine-level view (sums and weighted rates)."""
    if not stats_list:
        return SMStats()
    merged = SMStats(warp_size=stats_list[0].warp_size)
    merged.cycles = max(s.cycles for s in stats_list)
    for s in stats_list:
        merged.instructions_issued += s.instructions_issued
        merged.global_memory_instructions += s.global_memory_instructions
        merged.shared_memory_instructions += s.shared_memory_instructions
        merged.barriers_executed += s.barriers_executed
        merged.warps_retired += s.warps_retired
        merged.vta_hits += s.vta_hits
        merged.redirected_accesses += s.redirected_accesses
        merged.migrations_l1_to_shared += s.migrations_l1_to_shared
        merged.throttle_events += s.throttle_events
        merged.reactivate_events += s.reactivate_events
        merged.bypassed_accesses += s.bypassed_accesses
        merged.l1d_hits += s.l1d_hits
        merged.l1d_misses += s.l1d_misses
        merged.shared_cache_accesses += s.shared_cache_accesses
    total_l1 = merged.l1d_hits + merged.l1d_misses
    merged.l1d_hit_rate = merged.l1d_hits / total_l1 if total_l1 else 0.0
    merged.shared_memory_utilization = sum(
        s.shared_memory_utilization for s in stats_list
    ) / len(stats_list)
    merged.shared_cache_hit_rate = sum(
        s.shared_cache_hit_rate for s in stats_list
    ) / len(stats_list)
    merged.l2_hit_rate = stats_list[0].l2_hit_rate
    merged.dram_requests = stats_list[0].dram_requests
    return merged
