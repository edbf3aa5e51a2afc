"""Two-level warp scheduler (Narasiman et al., MICRO 2011).

Warps are statically partitioned into fetch groups; only the *active* group
is eligible to issue.  When every warp of the active group is stalled
(typically on memory), the scheduler switches to the next group.  The effect
is that long-latency misses of one group are overlapped with the execution
of another, while the instantaneous cache footprint is only one group wide.

The paper discusses this scheduler in Section VI as an example of a
scheduling policy that alleviates memory traffic but is not
interference-aware; it is included here for ablation studies.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.gpu.instruction import Instruction
from repro.gpu.warp import Warp
from repro.sched.base import WarpScheduler


class TwoLevelScheduler(WarpScheduler):
    """Fetch-group based two-level scheduling."""

    name = "two-level"

    # While the last-issued warp can issue, its fetch group stays active and
    # greedy-then-oldest re-picks it, so select is sticky; notify_issue only
    # tracks the greedy pointer.
    vector_sticky_select = True
    vector_notify_greedy_only = True

    def __init__(self, group_size: int = 8) -> None:
        super().__init__()
        if group_size <= 0:
            raise ValueError("group size must be positive")
        self.group_size = group_size
        self._active_group = 0
        self._last_wid: Optional[int] = None

    def select(self, issuable: Sequence[Warp], now: int) -> Optional[Warp]:
        """Issue from the active fetch group; rotate groups when it is empty.

        One pass over ``issuable`` finds whether the active group is present
        and, in case it is not, both the next later group (round-robin
        successor) and the smallest group (wrap-around).
        """
        if not issuable:
            return None
        size = self.group_size
        active = self._active_group
        later = smallest = None
        for warp in issuable:
            group = warp.wid // size
            if group == active:
                break
            if group > active and (later is None or group < later):
                later = group
            if smallest is None or group < smallest:
                smallest = group
        else:
            # The active group has no issuable warp: switch to the next group.
            active = self._active_group = later if later is not None else smallest
        candidates = [w for w in issuable if w.wid // size == active]
        return self.greedy_then_oldest(candidates, self._last_wid)

    def notify_issue(self, warp: Warp, instruction: Instruction, now: int) -> None:
        """Track the greedy warp within the active group."""
        self._last_wid = warp.wid

    def on_warp_retired(self, warp: Warp, now: int) -> None:
        """Forget the greedy warp when it exits."""
        if self._last_wid == warp.wid:
            self._last_wid = None
