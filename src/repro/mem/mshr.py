"""Miss Status Holding Registers (MSHRs).

The MSHR file tracks outstanding misses from an SM to the L2/DRAM.  Multiple
warps missing on the same 128-byte block are *merged* into one entry so only
one fill request travels down the hierarchy, which is essential to model the
bandwidth filtering a real L1D provides.  An entry's targets are the ids of
the merged warps; where the fill lands (L1D, CIAO's shared-memory cache or
nowhere, for a bypass) is carried by the SM's fill event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class MSHREntry:
    """One outstanding miss to a 128-byte block (slotted, hot-path object)."""

    block: int
    targets: list[int]  # ids of the merged warps

    @property
    def num_targets(self) -> int:
        """Number of merged requesters."""
        return len(self.targets)


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

    # ------------------------------------------------------------------
    def lookup(self, block: int) -> Optional[MSHREntry]:
        """Return the outstanding entry for ``block`` if any."""
        return self._entries.get(block)

    def allocate(self, block: int, wid: int) -> tuple[Optional[MSHREntry], bool]:
        """Allocate or merge warp ``wid``'s request for ``block``.

        Returns ``(entry, is_new)``.  ``entry`` is ``None`` when the file (or
        the merge list) is full, in which case the caller must replay the
        access later.
        """
        entry = self._entries.get(block)
        if entry is not None:
            if len(entry.targets) >= self.max_merged:
                return None, False
            entry.targets.append(wid)
            return entry, False
        if len(self._entries) >= self.num_entries:
            return None, False
        entry = MSHREntry(block, [wid])
        self._entries[block] = entry
        return entry, True

    def fill(self, block: int) -> Optional[MSHREntry]:
        """Complete the outstanding miss for ``block`` and release the entry."""
        return self._entries.pop(block, None)

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of outstanding blocks."""
        return len(self._entries)

    def outstanding_blocks(self) -> list[int]:
        """Blocks currently being fetched (ordered by allocation)."""
        return list(self._entries.keys())
