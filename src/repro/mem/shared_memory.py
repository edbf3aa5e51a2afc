"""Shared memory (scratchpad) and the Shared Memory Management Table.

Per Section II-A of the paper, each SM has a single on-chip memory structure
that is split between L1D cache and shared memory (16 KB / 48 KB on the
GTX 480 baseline).  Shared memory is organised as 32 independently
addressable banks; programmers explicitly allocate a region per CTA, and the
SM tracks allocations in a Shared Memory Management Table (SMMT) with one
entry per CTA (base address + size).

CIAO piggybacks on the SMMT: when a CTA launches, CIAO reads the existing
entries to find the *unused* portion of shared memory, then inserts an extra
SMMT entry reserving that region for its shared-memory cache
(Section IV-B, "Determination of unused shared memory space").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass
class SMMTEntry:
    """One Shared Memory Management Table entry (a reservation)."""

    owner: str          # "cta:<id>" for program allocations, "ciao" for the cache
    base: int           # byte offset within shared memory
    size: int           # bytes

    @property
    def end(self) -> int:
        """One past the last reserved byte."""
        return self.base + self.size


class SharedMemoryManagementTable:
    """Tracks shared-memory reservations within one SM."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("shared memory capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: list[SMMTEntry] = []

    # ------------------------------------------------------------------
    def entries(self) -> list[SMMTEntry]:
        """Current reservations (copy)."""
        return list(self._entries)

    def allocated_bytes(self) -> int:
        """Total bytes reserved."""
        return sum(entry.size for entry in self._entries)

    def unused_bytes(self) -> int:
        """Bytes not reserved by any entry."""
        return self.capacity_bytes - self.allocated_bytes()

    def _next_free_base(self) -> int:
        if not self._entries:
            return 0
        return max(entry.end for entry in self._entries)

    def allocate(self, owner: str, size: int) -> SMMTEntry:
        """Reserve ``size`` bytes for ``owner``; raises when space is missing."""
        if size < 0:
            raise ValueError("allocation size must be non-negative")
        if size > self.unused_bytes():
            raise MemoryError(
                f"shared memory exhausted: requested {size} bytes, "
                f"only {self.unused_bytes()} available"
            )
        entry = SMMTEntry(owner=owner, base=self._next_free_base(), size=size)
        self._entries.append(entry)
        return entry

    def free(self, owner: str) -> int:
        """Release every reservation of ``owner``; returns bytes freed."""
        freed = sum(e.size for e in self._entries if e.owner == owner)
        self._entries = [e for e in self._entries if e.owner != owner]
        return freed

    def find(self, owner: str) -> Optional[SMMTEntry]:
        """Return the first reservation of ``owner`` if present."""
        for entry in self._entries:
            if entry.owner == owner:
                return entry
        return None


@dataclass
class SharedMemoryStats:
    """Shared memory access statistics."""

    accesses: int = 0
    bank_conflict_cycles: int = 0
    rows_touched: set[int] = field(default_factory=set)


class SharedMemory:
    """Banked shared memory of one SM.

    Only the aspects the paper depends on are modelled:

    * capacity and the SMMT (who owns how much),
    * the 32-bank organisation with a simple bank-conflict serialisation
      model (the maximum number of requests hitting one bank is the number
      of serialised cycles),
    * which rows have ever been touched, used for the shared-memory
      utilisation figure (Fig. 8b).
    """

    NUM_BANKS = 32
    BANK_WIDTH_BYTES = 8  # each bank allows 64-bit accesses (Section IV-B)

    def __init__(self, capacity_bytes: int = 48 * 1024) -> None:
        self.capacity_bytes = capacity_bytes
        self.smmt = SharedMemoryManagementTable(capacity_bytes)
        self.stats = SharedMemoryStats()

    # ------------------------------------------------------------------
    @property
    def row_bytes(self) -> int:
        """Bytes per row across all banks."""
        return self.NUM_BANKS * self.BANK_WIDTH_BYTES

    @property
    def num_rows(self) -> int:
        """Number of rows across the full structure."""
        return self.capacity_bytes // self.row_bytes

    def row_of(self, byte_offset: int) -> int:
        """Row index of ``byte_offset``."""
        return byte_offset // self.row_bytes

    def access(self, byte_offsets: Iterable[int]) -> int:
        """Model one shared-memory access by a warp.

        ``byte_offsets`` are the per-lane shared-memory offsets.  Returns the
        number of cycles the access occupies the shared memory (1 when
        conflict-free, otherwise the worst per-bank request count).
        """
        offsets = list(byte_offsets)
        if not offsets:
            return 0
        if min(offsets) < 0 or max(offsets) >= self.capacity_bytes:
            for offset in offsets:
                if offset < 0 or offset >= self.capacity_bytes:
                    raise ValueError(f"shared memory offset {offset} out of range")
        bank_width = self.BANK_WIDTH_BYTES
        num_banks = self.NUM_BANKS
        row_bytes = bank_width * num_banks
        per_bank: dict[int, int] = {}
        per_bank_get = per_bank.get
        for offset in offsets:
            bank = (offset // bank_width) % num_banks
            per_bank[bank] = per_bank_get(bank, 0) + 1
        self.stats.rows_touched.update([offset // row_bytes for offset in offsets])
        cycles = max(per_bank.values())
        self.stats.accesses += 1
        self.stats.bank_conflict_cycles += cycles - 1
        return cycles

    def utilization(self) -> float:
        """Fraction of rows touched at least once (Fig. 8b metric)."""
        if self.num_rows == 0:
            return 0.0
        return len(self.stats.rows_touched) / self.num_rows
