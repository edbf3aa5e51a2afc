"""Victim Tag Array (VTA).

The VTA is the locality/interference sensor both CCWS and CIAO build on
(paper Section II-C).  Each warp owns a small FIFO set of *victim tags*:

* When a warp's line is evicted from the L1D, the evicted block's tag is
  pushed into the VTA set of the warp that originally brought the data in,
  together with the WID of the warp whose access caused the eviction.
* When a warp later misses on a block that is still in its own VTA set, that
  is a *VTA hit*: the warp had locality on the block and lost it to an
  identifiable interfering warp.

CCWS uses VTA hits as a per-warp "lost locality" score.  CIAO additionally
uses the recorded *evictor* WID to attribute the interference to a specific
warp (Section III-A), which feeds the interference list.

Table I configures the VTA as "8 tags per set, 48 sets, FIFO"; the paper's
overhead analysis (Section V-F) notes CIAO only needs 8 entries per warp,
half of CCWS's 16.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional


@dataclass
class VTAConfig:
    """Geometry of the victim tag array."""

    entries_per_warp: int = 8
    num_warps: int = 48

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical configurations."""
        if self.entries_per_warp <= 0:
            raise ValueError("VTA needs at least one entry per warp")
        if self.num_warps <= 0:
            raise ValueError("VTA needs at least one warp set")


@dataclass(slots=True)
class VTAHit:
    """Result of a VTA probe that found the missed block (slotted)."""

    wid: int              # warp that suffered the lost locality
    block: int            # block address that was re-referenced
    evictor_wid: int      # warp whose access evicted it (the interferer)


class VictimTagArray:
    """Per-warp FIFO victim tag sets.

    The implementation keeps one ordered dict per warp mapping
    ``block -> evictor_wid``; insertion order gives FIFO replacement.
    """

    def __init__(self, config: Optional[VTAConfig] = None) -> None:
        self.config = config or VTAConfig()
        self.config.validate()
        self._sets: dict[int, OrderedDict[int, int]] = {}

    def _set_for(self, wid: int) -> OrderedDict[int, int]:
        return self._sets.setdefault(wid, OrderedDict())

    # ------------------------------------------------------------------
    def record_eviction(self, owner_wid: int, block: int, evictor_wid: int) -> None:
        """Record that ``evictor_wid`` evicted ``block`` owned by ``owner_wid``.

        Self-evictions are still recorded: a warp can thrash itself (for
        example when its own working set exceeds the ways of a set), and the
        interference detector filters self-interference where the paper's
        Algorithm 1 requires it (``j != i``).
        """
        vta_set = self._set_for(owner_wid)
        if block in vta_set:
            # Refresh the evictor but keep FIFO age.
            vta_set[block] = evictor_wid
            return
        while len(vta_set) >= self.config.entries_per_warp:
            vta_set.popitem(last=False)
        vta_set[block] = evictor_wid

    def probe(self, wid: int, block: int, *, consume: bool = True) -> Optional[VTAHit]:
        """Probe warp ``wid``'s VTA set for ``block`` on an L1D miss.

        Returns a :class:`VTAHit` when present.  By default the entry is
        consumed (removed) on a hit, so one lost-locality event is counted
        once per re-reference.
        """
        vta_set = self._sets.get(wid)
        if not vta_set or block not in vta_set:
            return None
        evictor = vta_set[block]
        if consume:
            del vta_set[block]
        return VTAHit(wid=wid, block=block, evictor_wid=evictor)

    # ------------------------------------------------------------------
    def occupancy(self, wid: int) -> int:
        """Number of victim tags currently held for warp ``wid``."""
        return len(self._sets.get(wid, ()))

    def clear(self) -> None:
        """Drop every victim tag (used between kernels)."""
        self._sets.clear()

    def storage_bits(self, tag_bits: int = 25, wid_bits: int = 6) -> int:
        """Model storage cost in bits (used by the area model)."""
        per_entry = tag_bits + wid_bits
        return per_entry * self.config.entries_per_warp * self.config.num_warps
