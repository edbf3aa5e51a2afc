"""statPCAL: priority-based cache allocation with L1D bypassing.

statPCAL (Li et al., HPCA 2015 -- "Priority-based cache allocation in
throughput processors") is the bypassing baseline of the paper's evaluation
(Section V-A).  The behaviour the paper relies on:

* a set of *token-holding* warps (sized like Best-SWL's profiled limit) use
  the L1D normally, protecting their locality;
* the remaining warps are not simply throttled: when the L2/DRAM bandwidth
  is under-utilised they keep executing but their memory requests *bypass*
  the L1D and go straight to the lower levels, recovering TLP;
* when the downstream bandwidth is saturated, the non-token warps are
  throttled, since bypassing would only add queueing delay.

This gives statPCAL higher throughput than Best-SWL (up to 37% in the
paper), while still losing to CIAO on LWS/SWS workloads because bypassed
requests pay the long DRAM latency instead of hitting in on-chip storage.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.gpu.instruction import Instruction
from repro.gpu.warp import Warp
from repro.sched.base import WarpScheduler


class StatPCALScheduler(WarpScheduler):
    """Token-based L1D allocation with bandwidth-gated bypassing."""

    name = "statpcal"

    def __init__(
        self,
        token_count: int = 8,
        bandwidth_threshold: float = 0.75,
        update_interval: int = 64,
    ) -> None:
        super().__init__()
        if token_count <= 0:
            raise ValueError("token count must be positive")
        if not 0.0 < bandwidth_threshold <= 1.0:
            raise ValueError("bandwidth threshold must be in (0, 1]")
        self.token_count = token_count
        self.bandwidth_threshold = bandwidth_threshold
        self.update_interval = update_interval
        self._token_wids: set[int] = set()
        self._bypass_allowed = True
        self._last_wid: Optional[int] = None
        self._next_update = 0

    # ------------------------------------------------------------------
    def attach(self, sm) -> None:
        """Grant tokens to the oldest warps."""
        super().attach(sm)
        self._assign_tokens()
        self._next_update = 0

    def _assign_tokens(self) -> None:
        if self.sm is None:
            return
        resident = [w for w in self.sm.warps if not w.finished]
        resident.sort(key=lambda w: (w.assigned_at, w.wid))
        self._token_wids = {w.wid for w in resident[: self.token_count]}

    # ------------------------------------------------------------------
    # Note: select() prefers token holders over the last-issued warp, so it
    # is *not* greedy-sticky and the vector engine runs statPCAL through the
    # generic cycle-by-cycle path (no capability flags are set).

    def on_cycle_due(self) -> int:
        """``on_cycle`` is a no-op before the next periodic update point."""
        return self._next_update

    def on_cycle(self, now: int) -> None:
        """Periodically refresh the bandwidth signal and warp activation."""
        if now < self._next_update:
            return
        self._next_update = now + self.update_interval
        utilization = self.sm.memory.dram_utilization(max(1, now)) if self.sm else 0.0
        self._bypass_allowed = utilization < self.bandwidth_threshold
        self._apply_activation()

    def _apply_activation(self) -> None:
        """Token warps always run; non-token warps run only while bypassing."""
        if self.sm is None:
            return
        for warp in self.sm.warps:
            if warp.finished:
                continue
            allowed = warp.wid in self._token_wids or self._bypass_allowed
            if warp.active != allowed:
                warp.active = allowed
                if allowed:
                    self.sm.stats.reactivate_events += 1
                else:
                    self.sm.stats.throttle_events += 1

    # ------------------------------------------------------------------
    def should_bypass_l1(self, warp: Warp, now: int) -> bool:
        """Non-token warps bypass the L1D while bandwidth headroom exists."""
        return warp.wid not in self._token_wids and self._bypass_allowed

    def select(self, issuable: Sequence[Warp], now: int) -> Optional[Warp]:
        """GTO order, preferring token holders when both classes are ready."""
        if not issuable:
            return None
        token_ready = [w for w in issuable if w.wid in self._token_wids]
        pool = token_ready if token_ready else list(issuable)
        return self.greedy_then_oldest(pool, self._last_wid)

    def notify_issue(self, warp: Warp, instruction: Instruction, now: int) -> None:
        """Track the greedy warp."""
        self._last_wid = warp.wid

    def on_warp_retired(self, warp: Warp, now: int) -> None:
        """Hand the freed token to the next warp."""
        if self._last_wid == warp.wid:
            self._last_wid = None
        if warp.wid in self._token_wids:
            self._token_wids.discard(warp.wid)
            resident = [
                w
                for w in self.sm.warps
                if not w.finished and w.wid not in self._token_wids
            ]
            resident.sort(key=lambda w: (w.assigned_at, w.wid))
            if resident:
                self._token_wids.add(resident[0].wid)
        self._apply_activation()

    def on_no_progress(self, now: int) -> bool:
        """Re-enable bypassing so non-token warps cannot be starved forever."""
        if not self._bypass_allowed:
            self._bypass_allowed = True
            self._apply_activation()
            return True
        return False
