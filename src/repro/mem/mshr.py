"""Miss Status Holding Registers (MSHRs).

The MSHR file tracks outstanding misses from an SM to the L2/DRAM.  Multiple
warps missing on the same 128-byte block are *merged* into one entry so only
one fill request travels down the hierarchy, which is essential to model the
bandwidth filtering a real L1D provides.

CIAO extends each entry with a translated shared-memory address field
(Section IV-B, "Datapath connection"): when the fill belongs to a warp whose
requests were redirected to the shared-memory cache, the response is steered
into shared memory instead of the L1D, using the address computed by the
address translation unit at miss time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(slots=True)
class MSHRTarget:
    """One merged requester waiting on an outstanding fill.

    Slotted: one target is allocated per global-memory transaction, which
    makes this one of the hottest allocations of the whole simulator.
    """

    wid: int
    request_id: int
    is_write: bool = False


@dataclass(slots=True)
class MSHREntry:
    """One outstanding miss to a 128-byte block (slotted, hot-path object)."""

    block: int
    issued_at: int
    destination: str = "l1d"  # "l1d" or "shared" (CIAO redirection)
    shared_slot: Optional[int] = None  # translated shared-memory row (CIAO)
    targets: list[MSHRTarget] = field(default_factory=list)

    def add_target(self, target: MSHRTarget) -> None:
        """Merge another requester onto this entry."""
        self.targets.append(target)

    @property
    def num_targets(self) -> int:
        """Number of merged requesters."""
        return len(self.targets)


@dataclass
class MSHRStats:
    """Counters for MSHR behaviour."""

    allocations: int = 0
    merges: int = 0
    full_stalls: int = 0
    fills: int = 0
    peak_occupancy: int = 0


class MSHRFile:
    """Fixed-capacity MSHR file with per-block merging.

    Parameters
    ----------
    num_entries:
        Number of distinct outstanding blocks (GPGPU-Sim's Fermi default is
        32 per SM; configurable).
    max_merged:
        Maximum requesters merged per entry before further accesses stall.
    """

    def __init__(self, num_entries: int = 32, max_merged: int = 8) -> None:
        if num_entries <= 0 or max_merged <= 0:
            raise ValueError("MSHR geometry must be positive")
        self.num_entries = num_entries
        self.max_merged = max_merged
        self._entries: dict[int, MSHREntry] = {}
        self.stats = MSHRStats()

    # ------------------------------------------------------------------
    def lookup(self, block: int) -> Optional[MSHREntry]:
        """Return the outstanding entry for ``block`` if any."""
        return self._entries.get(block)

    def can_allocate(self, block: int) -> bool:
        """True when a new request for ``block`` can be accepted right now."""
        entry = self._entries.get(block)
        if entry is not None:
            return entry.num_targets < self.max_merged
        return len(self._entries) < self.num_entries

    def allocate(
        self,
        block: int,
        target: MSHRTarget,
        now: int,
        *,
        destination: str = "l1d",
        shared_slot: Optional[int] = None,
    ) -> tuple[Optional[MSHREntry], bool]:
        """Allocate or merge a request for ``block``.

        Returns ``(entry, is_new)``.  ``entry`` is ``None`` when the file (or
        the merge list) is full, in which case the caller must replay the
        access later; the stall is counted.
        """
        entry = self._entries.get(block)
        if entry is not None:
            if entry.num_targets >= self.max_merged:
                self.stats.full_stalls += 1
                return None, False
            entry.add_target(target)
            self.stats.merges += 1
            return entry, False
        if len(self._entries) >= self.num_entries:
            self.stats.full_stalls += 1
            return None, False
        entry = MSHREntry(
            block=block,
            issued_at=now,
            destination=destination,
            shared_slot=shared_slot,
            targets=[target],
        )
        self._entries[block] = entry
        self.stats.allocations += 1
        self.stats.peak_occupancy = max(self.stats.peak_occupancy, len(self._entries))
        return entry, True

    def fill(self, block: int) -> Optional[MSHREntry]:
        """Complete the outstanding miss for ``block`` and release the entry."""
        entry = self._entries.pop(block, None)
        if entry is not None:
            self.stats.fills += 1
        return entry

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of outstanding blocks."""
        return len(self._entries)

    def outstanding_blocks(self) -> list[int]:
        """Blocks currently being fetched (ordered by allocation)."""
        return list(self._entries.keys())

    def outstanding_for_warp(self, wid: int) -> int:
        """Number of outstanding entries that have ``wid`` among their targets."""
        return sum(
            1
            for entry in self._entries.values()
            if any(t.wid == wid for t in entry.targets)
        )
