"""Global-memory address decomposition.

The simulator uses byte addresses throughout.  The memory hierarchy operates
on 128-byte blocks (the L1D / L2 line size of the GTX 480 configuration in
Table I of the paper), so most structures only ever see *block addresses*
(``byte_address // 128``).

:class:`AddressMapping` captures how a cache of a given geometry splits a
byte address into ``(tag, set_index, byte_offset)``, optionally applying an
XOR-based set-index hash (see :mod:`repro.mem.hashing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: Cache line / memory transaction size in bytes (Table I: 128 B lines).
BLOCK_SIZE: int = 128

#: log2 of :data:`BLOCK_SIZE`.
BLOCK_SHIFT: int = 7


def block_address(byte_address: int) -> int:
    """Return the 128-byte block number containing ``byte_address``."""
    return byte_address >> BLOCK_SHIFT


def block_base(byte_address: int) -> int:
    """Return the byte address of the first byte of the containing block."""
    return (byte_address >> BLOCK_SHIFT) << BLOCK_SHIFT


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Integer log2 of a power of two.

    Raises :class:`ValueError` when ``value`` is not a power of two, because
    every cache geometry in this simulator is required to be power-of-two
    sized (as on the real hardware).
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1


@dataclass(frozen=True)
class AddressMapping:
    """Split byte addresses into (tag, set, offset) for a cache geometry.

    Parameters
    ----------
    num_sets:
        Number of cache sets; must be a power of two.
    line_size:
        Line size in bytes; must be a power of two (128 for this work).
    set_hash:
        Optional callable ``(block_addr, num_sets) -> set_index``.  When
        omitted the conventional modulo mapping is used.  The paper's
        baseline applies an XOR-based hash to both L1D and L2
        (Section V-A, citing Nugteren et al. [26]).
    """

    num_sets: int
    line_size: int = BLOCK_SIZE
    set_hash: Callable[[int, int], int] | None = None
    _offset_bits: int = field(init=False, repr=False, default=0)
    _offset_mask: int = field(init=False, repr=False, default=0)
    _index_fn: Callable[[int], int] = field(init=False, repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_offset_bits", ilog2(self.line_size))
        object.__setattr__(self, "_offset_mask", self.line_size - 1)
        # One-argument block -> set closure with the per-call constants
        # hoisted (this runs on every cache probe).
        if self.set_hash is not None:
            from repro.mem.hashing import specialize_set_hash

            index_fn = specialize_set_hash(self.set_hash, self.num_sets)
        elif is_power_of_two(self.num_sets):
            mask = self.num_sets - 1

            def index_fn(blk: int, _mask: int = mask) -> int:
                return blk & _mask
        else:
            # The number of sets does not have to be a power of two: the
            # GTX 480 L2 (768 KB, 8-way, 128 B lines) has 768 sets.
            # Non-power-of-two geometries fall back to modulo indexing.
            sets = self.num_sets

            def index_fn(blk: int, _sets: int = sets) -> int:
                return blk % _sets
        object.__setattr__(self, "_index_fn", index_fn)

    # -- decomposition -----------------------------------------------------
    def byte_offset(self, byte_address: int) -> int:
        """Byte offset of ``byte_address`` within its line."""
        return byte_address & (self.line_size - 1)

    def block(self, byte_address: int) -> int:
        """Block number (line-aligned address divided by line size)."""
        return byte_address >> self._offset_bits

    def set_index(self, byte_address: int) -> int:
        """Set index for ``byte_address`` (after hashing, when enabled)."""
        return self._index_fn(byte_address >> self._offset_bits)

    def tag(self, byte_address: int) -> int:
        """Tag for ``byte_address``.

        The tag is simply the block number: keeping the full block number as
        the tag makes the structures hash-agnostic (two distinct blocks can
        never alias to the same tag) at the cost of a few wasted model bits,
        which is irrelevant for a functional simulator.
        """
        return self.block(byte_address)

    def decompose(self, byte_address: int) -> tuple[int, int, int]:
        """Return ``(tag, set_index, byte_offset)`` for ``byte_address``."""
        blk = byte_address >> self._offset_bits
        return (blk, self._index_fn(blk), byte_address & self._offset_mask)

    # -- reconstruction ----------------------------------------------------
    def block_to_byte(self, blk: int) -> int:
        """Return the base byte address of block ``blk``."""
        return blk << self._offset_bits
