"""CIAO on-chip memory architecture policy.

The *mechanism* of the CIAO on-chip memory architecture -- the shared-memory
cache layout and the address translation unit -- lives in
:mod:`repro.mem.shared_cache`, and the SM's load/store path steers an
isolated warp's requests and fills to it.  This module implements
the *policy* side (Section III-B): deciding which warps are isolated
(their global requests redirected to unused shared memory), recording who
triggered each isolation in the pair list, and undoing the redirection when
the triggering interference disappears.

It is used by :class:`repro.core.ciao_scheduler.CIAOScheduler`, and can also
be driven directly to study the redirection mechanism in isolation from the
throttling policy.
"""

from __future__ import annotations

from repro.core.interference import InterferenceDetector
from repro.gpu.warp import Warp


class CIAOOnChipMemory:
    """Tracks and manipulates per-warp isolation (the I bit)."""

    def __init__(self, detector: InterferenceDetector) -> None:
        self.detector = detector

    # ------------------------------------------------------------------
    def available(self, sm) -> bool:
        """True when the SM actually has a usable shared-memory cache."""
        return sm is not None and sm.shared_cache is not None and sm.shared_cache.num_lines > 0

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
        entry = self.detector.pair_entry(warp.wid)
        entry.redirect_trigger = triggered_by_wid
        return True

    def restore(self, warp: Warp, sm=None) -> bool:
        """Send ``warp``'s requests back to the L1D (clears the I bit)."""
        if not warp.isolated:
            return False
        warp.isolated = False
        entry = self.detector.pair_entry(warp.wid)
        entry.redirect_trigger = -1
        return True
