"""CIAO on-chip memory architecture policy.

The *mechanism* of the CIAO on-chip memory architecture -- the shared-memory
cache layout, the address translation unit, the MSHR extension and the
datapath multiplexer -- lives in :mod:`repro.mem.shared_cache`,
:mod:`repro.mem.mshr` and the SM's load/store path.  This module implements
the *policy* side (Section III-B): deciding which warps are isolated
(their global requests redirected to unused shared memory), recording who
triggered each isolation in the pair list, and undoing the redirection when
the triggering interference disappears.

It is used by :class:`repro.core.ciao_scheduler.CIAOScheduler`, and can also
be driven directly (see ``examples/isolation_playground.py``) to study the
redirection mechanism in isolation from the throttling policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.interference import InterferenceDetector
from repro.gpu.warp import Warp


@dataclass
class IsolationStats:
    """Counts of isolation decisions."""

    isolations: int = 0
    restorations: int = 0


class CIAOOnChipMemory:
    """Tracks and manipulates per-warp isolation (the I bit)."""

    def __init__(self, detector: InterferenceDetector) -> None:
        self.detector = detector
        self.stats = IsolationStats()
        self._isolated_wids: set[int] = set()

    # ------------------------------------------------------------------
    def available(self, sm) -> bool:
        """True when the SM actually has a usable shared-memory cache."""
        return sm is not None and sm.shared_cache is not None and sm.shared_cache.num_lines > 0

    def is_isolated(self, wid: int) -> bool:
        """True when warp ``wid`` currently has its requests redirected."""
        return wid in self._isolated_wids

    # ------------------------------------------------------------------
    def isolate(self, warp: Warp, triggered_by_wid: int, sm=None) -> bool:
        """Redirect ``warp``'s global requests to the shared-memory cache.

        ``triggered_by_wid`` is the interfered warp whose high IRS caused the
        decision; it is recorded in the pair list (first field) so the
        redirection can later be undone when that warp's IRS drops below the
        low cutoff.  Returns True when the isolation was applied.
        """
        if warp.finished or warp.isolated:
            return False
        if sm is not None and not self.available(sm):
            return False
        warp.isolated = True
        self._isolated_wids.add(warp.wid)
        entry = self.detector.pair_entry(warp.wid)
        entry.redirect_trigger = triggered_by_wid
        self.stats.isolations += 1
        if sm is not None:
            sm.stats.throttle_events += 0  # isolation does not reduce TLP
        return True

    def restore(self, warp: Warp, sm=None) -> bool:
        """Send ``warp``'s requests back to the L1D (clears the I bit)."""
        if not warp.isolated:
            return False
        warp.isolated = False
        self._isolated_wids.discard(warp.wid)
        entry = self.detector.pair_entry(warp.wid)
        entry.redirect_trigger = -1
        self.stats.restorations += 1
        return True

    def forget_warp(self, warp: Warp) -> None:
        """Clean up when a warp retires."""
        self._isolated_wids.discard(warp.wid)

    # ------------------------------------------------------------------
    def redirect_trigger(self, wid: int) -> Optional[int]:
        """The interfered warp that caused ``wid``'s redirection (or None)."""
        entry = self.detector.pair_list.get(wid)
        if entry is None or entry.redirect_trigger < 0:
            return None
        return entry.redirect_trigger
