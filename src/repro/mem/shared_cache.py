"""CIAO's unused-shared-memory-as-cache structure.

Section IV-B of the paper describes how the unused portion of shared memory
is operated as a *direct-mapped* cache for the global-memory requests of
warps that CIAO decided to isolate:

* The 32 shared-memory banks are split into two bank groups of 16 banks; a
  128-byte data block is striped across the 16 banks of one group (8 bytes
  per bank), so a block can be read in a single access.
* Tags are stored in the *other* bank group (a tag + WID needs 31 bits, two
  tags fit in one 64-bit bank word, 32 tags per group-row), so a tag and its
  data block never conflict on a bank and are fetched in parallel.
* A hardware address translation unit maps a global address to the
  byte-offset / bank / bank-group / row fields ("F", "B", "G", "R") plus the
  tag location, using data/tag offset registers so the layout adapts to
  however much shared memory is actually unused.

The model below reproduces this bookkeeping faithfully enough to (1) answer
hit/miss with the right capacity and mapping behaviour, (2) account for the
tag storage overhead, and (3) expose the translation arithmetic for tests,
while remaining a functional model (no data bytes are stored).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mem.address import BLOCK_SIZE
from repro.mem.shared_memory import SharedMemory


@dataclass(frozen=True)
class TranslatedAddress:
    """Output of the address translation unit for one global address.

    Attributes mirror Figure 7c: ``byte_offset`` (F), ``bank`` (B),
    ``bank_group`` (G) and ``row`` (R) locate the data block; ``tag_row``,
    ``tag_bank_group`` and ``tag_slot`` locate the 31-bit tag + WID pair.
    """

    line_index: int
    byte_offset: int
    bank: int
    bank_group: int
    row: int
    tag_row: int
    tag_bank_group: int
    tag_slot: int
    tag: int


class AddressTranslationUnit:
    """Translate global byte addresses into shared-memory cache locations.

    Parameters
    ----------
    num_lines:
        Number of 128-byte data blocks the shared-memory cache can hold.
    data_offset_rows / tag_offset_rows:
        The "data block offset" and "tag offset" registers of Figure 7c,
        expressed in group-rows; they re-base the layout so that the cache
        only occupies the *unused* region of shared memory.
    """

    BANKS_PER_GROUP = 16
    BANK_WORD_BYTES = 8
    GROUP_ROW_BYTES = BANKS_PER_GROUP * BANK_WORD_BYTES  # 128 bytes
    TAGS_PER_BANK_WORD = 2
    TAGS_PER_GROUP_ROW = BANKS_PER_GROUP * TAGS_PER_BANK_WORD  # 32 tags

    def __init__(self, num_lines: int, *, data_offset_rows: int = 0, tag_offset_rows: int = 0) -> None:
        if num_lines < 0:
            raise ValueError("num_lines must be non-negative")
        self.num_lines = num_lines
        self.data_offset_rows = data_offset_rows
        self.tag_offset_rows = tag_offset_rows

    def translate(self, byte_address: int) -> TranslatedAddress:
        """Map a global byte address onto the shared-memory cache layout."""
        if self.num_lines == 0:
            raise ValueError("shared-memory cache has zero capacity")
        block = byte_address // BLOCK_SIZE
        line_index = block % self.num_lines
        byte_offset = byte_address % BLOCK_SIZE
        # Data placement: line i lives in group (i % 2), group-row (i // 2).
        bank_group = line_index % 2
        row = self.data_offset_rows + line_index // 2
        bank = (byte_offset // self.BANK_WORD_BYTES) % self.BANKS_PER_GROUP
        # Tag placement: the tag sits in the *other* group; 32 tags per row.
        tag_bank_group = 1 - bank_group
        tag_row = self.tag_offset_rows + line_index // self.TAGS_PER_GROUP_ROW
        tag_slot = line_index % self.TAGS_PER_GROUP_ROW
        return TranslatedAddress(
            line_index=line_index,
            byte_offset=byte_offset,
            bank=bank,
            bank_group=bank_group,
            row=row,
            tag_row=tag_row,
            tag_bank_group=tag_bank_group,
            tag_slot=tag_slot,
            tag=block,
        )


@dataclass
class SharedCacheLine:
    """One direct-mapped line of the shared-memory cache."""

    tag: Optional[int] = None
    owner_wid: int = -1
    reserved: bool = False
    last_used_at: int = -1


@dataclass
class SharedCacheStats:
    """Hit/miss statistics for the shared-memory cache."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Resolved accesses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit rate over resolved accesses."""
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class SharedCacheAccess:
    """Outcome of one shared-memory-cache access."""

    hit: bool
    line_index: int
    block: int
    evicted_block: Optional[int] = None
    evicted_owner: int = -1
    reserved_pending: bool = False


class SharedMemoryCache:
    """Direct-mapped cache carved out of unused shared memory.

    Parameters
    ----------
    shared_memory:
        The SM's :class:`~repro.mem.shared_memory.SharedMemory`; the cache
        reserves its space through the SMMT (owner ``"ciao"``) so that the
        reservation is visible to later CTA launches, exactly as the paper's
        hardware does.
    reserve_bytes:
        How much unused shared memory to claim.  Defaults to everything
        currently unused.
    """

    #: Storage cost of a tag + WID pair (25-bit tag + 6-bit WID, Section IV-B).
    TAG_BITS = 31

    def __init__(self, shared_memory: SharedMemory, reserve_bytes: Optional[int] = None) -> None:
        self.shared_memory = shared_memory
        available = shared_memory.smmt.unused_bytes()
        if reserve_bytes is None:
            reserve_bytes = available
        if reserve_bytes > available:
            raise MemoryError(
                f"cannot reserve {reserve_bytes} bytes of shared memory; only {available} unused"
            )
        if reserve_bytes > 0:
            self._smmt_entry = shared_memory.smmt.allocate("ciao", reserve_bytes)
        else:
            self._smmt_entry = None
        self.num_lines = self._usable_lines(reserve_bytes)
        data_offset_rows = (self._smmt_entry.base // AddressTranslationUnit.GROUP_ROW_BYTES) if self._smmt_entry else 0
        self.atu = AddressTranslationUnit(self.num_lines, data_offset_rows=data_offset_rows)
        self._lines = [SharedCacheLine() for _ in range(self.num_lines)]
        self.stats = SharedCacheStats()
        self.hit_latency = 1

    @staticmethod
    def _usable_lines(reserve_bytes: int) -> int:
        """Number of 128-byte data blocks after accounting for tag storage.

        Every 32 data blocks need one additional 128-byte group-row of tags
        (32 tags x 31 bits < 128 bytes), i.e. a 33:32 overhead.
        """
        if reserve_bytes < BLOCK_SIZE * 2:
            return 0
        # Solve lines * 128 + ceil(lines/32) * 128 <= reserve_bytes.
        lines = reserve_bytes // BLOCK_SIZE
        while lines > 0:
            tag_rows = (lines + 31) // 32
            if lines * BLOCK_SIZE + tag_rows * BLOCK_SIZE <= reserve_bytes:
                break
            lines -= 1
        return lines

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Data capacity in bytes (excludes tag rows)."""
        return self.num_lines * BLOCK_SIZE

    # ------------------------------------------------------------------
    def access(self, byte_address: int, wid: int, *, is_write: bool, now: int) -> SharedCacheAccess:
        """Access the shared-memory cache for warp ``wid``.

        Misses reserve the line immediately (fill allocated by the MSHR path)
        and report the evicted block, which -- because the shared cache only
        ever holds clean global data under the paper's write-through policy --
        never needs a writeback.
        """
        if self.num_lines == 0:
            # Degenerate configuration (no unused shared memory): everything
            # is a miss and nothing is retained.
            self.stats.misses += 1
            return SharedCacheAccess(hit=False, line_index=-1, block=byte_address // BLOCK_SIZE)
        loc = self.atu.translate(byte_address)
        line = self._lines[loc.line_index]
        self._touch_rows(loc)
        if line.tag == loc.tag:
            line.last_used_at = now
            self.stats.hits += 1
            return SharedCacheAccess(
                hit=True,
                line_index=loc.line_index,
                block=loc.tag,
                reserved_pending=line.reserved,
            )
        evicted_block = line.tag
        evicted_owner = line.owner_wid
        line.tag = loc.tag
        line.owner_wid = wid
        line.reserved = True
        line.last_used_at = now
        self.stats.misses += 1
        return SharedCacheAccess(
            hit=False,
            line_index=loc.line_index,
            block=loc.tag,
            evicted_block=evicted_block,
            evicted_owner=evicted_owner,
        )

    def fill(self, block: int, now: int) -> None:
        """Complete a pending fill for ``block`` (clears the reservation)."""
        if self.num_lines == 0:
            return
        line_index = block % self.num_lines
        line = self._lines[line_index]
        if line.tag == block:
            line.reserved = False
            line.last_used_at = now

    def contains(self, byte_address: int) -> bool:
        """True when the block is present and not awaiting a fill."""
        if self.num_lines == 0:
            return False
        loc = self.atu.translate(byte_address)
        line = self._lines[loc.line_index]
        return line.tag == loc.tag and not line.reserved

    def invalidate_all(self) -> None:
        """Drop every block (redirection disabled / kernel end)."""
        for line in self._lines:
            line.tag = None
            line.owner_wid = -1
            line.reserved = False

    def _touch_rows(self, loc: TranslatedAddress) -> None:
        """Mark the data and tag rows as used for the utilisation metric."""
        base = self._smmt_entry.base if self._smmt_entry else 0
        data_byte = base + loc.line_index * BLOCK_SIZE
        tag_byte = base + self.num_lines * BLOCK_SIZE + loc.tag_row * AddressTranslationUnit.GROUP_ROW_BYTES
        stats = self.shared_memory.stats
        stats.rows_touched.add(self.shared_memory.row_of(min(data_byte, self.shared_memory.capacity_bytes - 1)))
        stats.rows_touched.add(self.shared_memory.row_of(min(tag_byte, self.shared_memory.capacity_bytes - 1)))

    def occupancy(self) -> float:
        """Fraction of lines holding a block."""
        if self.num_lines == 0:
            return 0.0
        return sum(1 for line in self._lines if line.tag is not None) / self.num_lines
