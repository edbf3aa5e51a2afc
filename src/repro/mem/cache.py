"""Set-associative data caches (L1D and L2).

The cache model is functional / timing-annotated: it tracks which blocks are
present, who owns them, hit/miss outcomes and evictions, but does not store
data bytes.  Timing (hit latency, fill latency) is applied by the load-store
unit and the memory subsystem that drive the cache.

Configuration follows Table I of the paper:

* L1D: 16 KB, 128 B lines, 4 ways, write no-allocate for global stores,
  write-back for local stores, LRU, 1-cycle latency, XOR set hashing.
* L2: 768 KB, 128 B lines, 8 ways, write-allocate, write-back, LRU.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.mem.address import BLOCK_SIZE, AddressMapping
from repro.mem.hashing import get_set_hash
from repro.mem.tag_array import Eviction, ReplacementPolicy, TagArray, TagLine


class WritePolicy(enum.Enum):
    """Write handling for store transactions."""

    WRITE_THROUGH_NO_ALLOCATE = "write-through-no-allocate"
    WRITE_BACK_WRITE_ALLOCATE = "write-back-write-allocate"


class AccessOutcome(enum.Enum):
    """Result category of a cache access."""

    HIT = "hit"
    HIT_RESERVED = "hit_reserved"  # block is being filled by an earlier miss
    MISS = "miss"
    MISS_NO_ALLOCATE = "miss_no_allocate"  # write miss under no-allocate policy
    RESERVATION_FAIL = "reservation_fail"  # no replaceable line (set all reserved)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one :meth:`Cache.access` call (slotted: one per access)."""

    outcome: AccessOutcome
    block: int
    set_index: int
    eviction: Optional[Eviction] = None
    line: Optional[TagLine] = None
    writeback_block: Optional[int] = None  # dirty victim that must go to the next level

    @property
    def is_miss(self) -> bool:
        """True when a fill from the next level is required."""
        return self.outcome in (AccessOutcome.MISS, AccessOutcome.MISS_NO_ALLOCATE)


@dataclass
class CacheConfig:
    """Geometry and policy of one cache level."""

    name: str
    size_bytes: int
    line_size: int = BLOCK_SIZE
    associativity: int = 4
    write_policy: WritePolicy = WritePolicy.WRITE_THROUGH_NO_ALLOCATE
    replacement: ReplacementPolicy = ReplacementPolicy.LRU
    set_hash: str = "xor"
    hit_latency: int = 1

    @property
    def num_lines(self) -> int:
        """Total number of lines."""
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.num_lines // self.associativity

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent geometries."""
        if self.size_bytes % self.line_size != 0:
            raise ValueError("cache size must be a multiple of the line size")
        if self.num_lines % self.associativity != 0:
            raise ValueError("number of lines must be a multiple of associativity")
        if self.num_sets <= 0:
            raise ValueError("cache must have at least one set")

    @classmethod
    def l1d_gtx480(cls, *, set_hash: str = "xor", size_kb: int = 16, associativity: int = 4) -> "CacheConfig":
        """L1D configuration from Table I (16 KB, 4-way, WT/no-allocate)."""
        return cls(
            name="L1D",
            size_bytes=size_kb * 1024,
            associativity=associativity,
            write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
            set_hash=set_hash,
            hit_latency=1,
        )

    @classmethod
    def l2_gtx480(cls, *, set_hash: str = "xor", size_kb: int = 768) -> "CacheConfig":
        """L2 configuration from Table I (768 KB, 8-way, WB/write-allocate)."""
        return cls(
            name="L2",
            size_bytes=size_kb * 1024,
            associativity=8,
            write_policy=WritePolicy.WRITE_BACK_WRITE_ALLOCATE,
            set_hash=set_hash,
            hit_latency=8,
        )


@dataclass
class CacheStats:
    """Aggregate and per-warp hit/miss counters."""

    hits: int = 0
    misses: int = 0
    reservation_fails: int = 0
    evictions: int = 0
    writebacks: int = 0
    per_warp_hits: dict[int, int] = field(default_factory=dict)
    per_warp_misses: dict[int, int] = field(default_factory=dict)

    def record(self, wid: int, result: AccessResult) -> None:
        """Update counters from one access result."""
        if result.outcome is AccessOutcome.RESERVATION_FAIL:
            self.reservation_fails += 1
            return
        if result.outcome in (AccessOutcome.HIT, AccessOutcome.HIT_RESERVED):
            self.hits += 1
            self.per_warp_hits[wid] = self.per_warp_hits.get(wid, 0) + 1
        else:
            self.misses += 1
            self.per_warp_misses[wid] = self.per_warp_misses.get(wid, 0) + 1
        if result.eviction is not None:
            self.evictions += 1
        if result.writeback_block is not None:
            self.writebacks += 1

    @property
    def accesses(self) -> int:
        """Total accesses that resolved to hit or miss."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit rate over resolved accesses (0.0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class Cache:
    """A single cache level (used for both L1D and L2).

    The cache exposes :meth:`access` for demand accesses and :meth:`fill` for
    returning miss data.  On a read miss the line is *reserved* immediately
    (so later accesses to the same block observe ``HIT_RESERVED`` and can be
    merged in the MSHR), mirroring GPGPU-Sim's allocate-on-miss behaviour.
    """

    def __init__(self, config: CacheConfig, *, eviction_hook: Optional[Callable[[Eviction], None]] = None) -> None:
        config.validate()
        self.config = config
        self.mapping = AddressMapping(
            num_sets=config.num_sets,
            line_size=config.line_size,
            set_hash=get_set_hash(config.set_hash),
        )
        self.tags = TagArray(
            num_sets=config.num_sets,
            associativity=config.associativity,
            policy=config.replacement,
        )
        self.stats = CacheStats()
        self._eviction_hook = eviction_hook

    # ------------------------------------------------------------------
    def access(self, byte_address: int, wid: int, *, is_write: bool, now: int) -> AccessResult:
        """Perform a demand access for warp ``wid`` at time ``now``."""
        tag, set_index, _ = self.mapping.decompose(byte_address)
        line = self.tags.lookup(set_index, tag, now)
        result: AccessResult
        if line is not None:
            if is_write:
                if self.config.write_policy is WritePolicy.WRITE_BACK_WRITE_ALLOCATE:
                    line.dirty = True
                # Under write-through the store still updates the line but the
                # write is forwarded to the next level by the LDST unit.
            outcome = AccessOutcome.HIT_RESERVED if line.reserved else AccessOutcome.HIT
            result = AccessResult(outcome=outcome, block=tag, set_index=set_index, line=line)
        elif is_write and self.config.write_policy is WritePolicy.WRITE_THROUGH_NO_ALLOCATE:
            # Global store miss: no allocation, the store goes straight to the
            # next level (write no-allocate, Table I).
            result = AccessResult(
                outcome=AccessOutcome.MISS_NO_ALLOCATE, block=tag, set_index=set_index
            )
        else:
            victim = self.tags.find_victim(set_index)
            if victim is None:
                result = AccessResult(
                    outcome=AccessOutcome.RESERVATION_FAIL, block=tag, set_index=set_index
                )
            else:
                # Reuse the victim we already found (insert() would re-run
                # the victim search on this hot path).
                eviction = self.tags.fill_line(
                    victim,
                    set_index,
                    tag,
                    owner_wid=wid,
                    now=now,
                    dirty=is_write
                    and self.config.write_policy is WritePolicy.WRITE_BACK_WRITE_ALLOCATE,
                    reserve=True,
                )
                writeback = None
                if eviction is not None and eviction.dirty:
                    writeback = eviction.tag
                if eviction is not None and self._eviction_hook is not None:
                    self._eviction_hook(eviction)
                result = AccessResult(
                    outcome=AccessOutcome.MISS,
                    block=tag,
                    set_index=set_index,
                    eviction=eviction,
                    line=victim,
                    writeback_block=writeback,
                )
        self.stats.record(wid, result)
        return result

    def fill(self, block: int, now: int) -> None:
        """Complete an outstanding fill for ``block`` (clears the reservation)."""
        byte_address = self.mapping.block_to_byte(block)
        set_index = self.mapping.set_index(byte_address)
        line = self.tags.probe(set_index, block)
        if line is not None:
            line.reserved = False
            line.last_used_at = now

    def contains(self, byte_address: int) -> bool:
        """True when the block holding ``byte_address`` is present (valid, not reserved)."""
        tag, set_index, _ = self.mapping.decompose(byte_address)
        line = self.tags.probe(set_index, tag)
        return line is not None and not line.reserved

    def probe_owner(self, byte_address: int) -> Optional[int]:
        """Return the warp id that owns the block, or None when absent."""
        tag, set_index, _ = self.mapping.decompose(byte_address)
        line = self.tags.probe(set_index, tag)
        if line is None:
            return None
        return line.owner_wid

    def invalidate(self, byte_address: int) -> bool:
        """Invalidate the block holding ``byte_address`` (CIAO data migration)."""
        tag, set_index, _ = self.mapping.decompose(byte_address)
        return self.tags.invalidate(set_index, tag)

    def flush(self) -> None:
        """Invalidate every line and keep statistics."""
        self.tags.invalidate_all()

    # ------------------------------------------------------------------
    @property
    def hit_latency(self) -> int:
        """Hit latency in cycles."""
        return self.config.hit_latency

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        return self.tags.occupancy() / self.tags.num_lines
