"""Base class / protocol for warp schedulers.

The SM (:class:`repro.gpu.sm.StreamingMultiprocessor`) drives its scheduler
through the hooks defined here.  All of them except :meth:`select` have
sensible no-op defaults, so simple policies only implement warp ordering
while the adaptive policies (CCWS, statPCAL, CIAO) additionally react to
memory-system feedback.

Hook call points
----------------

``attach(sm)``
    Once, after the kernel is launched and warps exist.
``on_cycle(now)``
    At the start of every issue cycle (cheap bookkeeping only).
``select(issuable, now)``
    Pick the warp to issue among the currently issuable ones.
``notify_issue(warp, instruction, now)``
    After an instruction issued successfully.
``notify_global_access(warp, hit, vta_hit, destination, now)``
    For every global-memory transaction: whether it hit, whether the victim
    tag array detected lost locality (and to whom it is attributed), and
    which structure served it ("l1d", "shared", "bypass").
``should_bypass_l1(warp, now)``
    Queried per memory instruction; return True to send the warp's requests
    straight to L2 (statPCAL).
``on_warp_retired(warp, now)`` / ``on_no_progress(now)``
    Warp completion, and the livelock guard (return True when the scheduler
    changed something that will allow progress).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.gpu.instruction import Instruction
from repro.gpu.warp import Warp
from repro.mem.victim_tag_array import VTAHit

#: Names of the optional scheduler hooks the SM may invoke.  ``select`` is
#: mandatory and therefore not listed.
SCHEDULER_HOOK_NAMES = (
    "on_cycle",
    "notify_issue",
    "notify_global_access",
    "should_bypass_l1",
    "on_warp_retired",
    "on_no_progress",
)


@dataclass(slots=True)
class SchedulerHooks:
    """The resolved capability surface of one scheduler instance.

    The SM used to probe ``hasattr(self.scheduler, ...)`` on every cycle /
    issue / retire; this dataclass makes the capability interface explicit
    and lets the SM resolve each hook to a bound method exactly once (at
    ``attach`` time).  A hook is ``None`` when the scheduler does not
    implement it — or only inherits the no-op default from
    :class:`WarpScheduler`, which is behaviourally identical to not
    implementing it and lets the SM skip the call entirely.
    """

    on_cycle: Optional[Callable[[int], None]] = None
    notify_issue: Optional[Callable[[Warp, Instruction, int], None]] = None
    notify_global_access: Optional[
        Callable[[Warp, bool, Optional[VTAHit], str, int], None]
    ] = None
    should_bypass_l1: Optional[Callable[[Warp, int], bool]] = None
    on_warp_retired: Optional[Callable[[Warp, int], None]] = None
    on_no_progress: Optional[Callable[[int], bool]] = None


def resolve_hooks(scheduler) -> SchedulerHooks:
    """Resolve ``scheduler``'s optional hooks into bound-method slots.

    Works for :class:`WarpScheduler` subclasses and for duck-typed scheduler
    objects alike.  Base-class no-op defaults resolve to ``None`` so the hot
    loop never pays for a call that cannot do anything; any override —
    including one set as an instance attribute — is kept.
    """
    resolved = {}
    for name in SCHEDULER_HOOK_NAMES:
        hook = getattr(scheduler, name, None)
        if hook is not None:
            default = getattr(WarpScheduler, name, None)
            if default is not None and getattr(hook, "__func__", None) is default:
                hook = None
        resolved[name] = hook
    return SchedulerHooks(**resolved)


class WarpScheduler:
    """Reference scheduler interface with no-op default hooks."""

    #: Human-readable policy name (overridden by subclasses).
    name = "base"

    # -- vector-engine capability contract (see repro.gpu.vector) -----------
    #: Declares that ``select`` is *greedy-sticky*: whenever the last-issued
    #: warp is in the issuable set, ``select`` returns it again, regardless
    #: of what else became issuable.  The vector backend uses this to issue
    #: uninterrupted single-warp instruction runs in one batched step; the
    #: batch is bit-identical to the cycle-by-cycle path only under this
    #: property, so a scheduler must not set it unless it truly holds.
    #:
    #: The flag also promises that selection is *repeatable*: a second
    #: ``select`` over the same issuable list (with no ``notify_issue`` in
    #: between) returns the first call's warp and leaves the scheduler's
    #: state unchanged.  Any state change, such as two-level's fetch-group
    #: rotation, may happen only on the first call.  The lock-step driver
    #: relies on this to let an SM whose selected warp was refused sleep
    #: instead of re-running the same selection every cycle
    #: (:mod:`repro.gpu.lockstep`); ``tests/test_schedulers.py`` checks it
    #: for every registered scheduler that sets the flag.
    vector_sticky_select = False
    #: Declares that ``notify_issue`` does nothing but track the greedy
    #: pointer (``_last_wid``), so N consecutive issues of the same warp may
    #: be folded into a single call.  Schedulers whose ``notify_issue`` has
    #: instruction-count side effects (CIAO's epoch checks) leave this False
    #: and are notified per instruction inside a batch.
    vector_notify_greedy_only = False
    #: Strictly stronger than :attr:`vector_sticky_select`: ``select`` is
    #: side-effect free and *always* returns the last-issued warp when it is
    #: issuable — even after intervening cycles in which selection ran
    #: without an issue.  This lets the vector engine skip building the
    #: issuable list entirely while the greedy warp can issue.  Two-level
    #: scheduling must NOT set this: its ``select`` rotates the active fetch
    #: group (a mutation) whenever the group has no issuable warp — e.g. in
    #: a failed-issue cycle — after which the greedy warp is no longer
    #: preferred.
    vector_select_pure_greedy = False

    def vector_notify_due(self) -> Optional[int]:
        """First total-instruction count at which ``notify_issue`` may act.

        For schedulers whose ``notify_issue`` is a pure greedy-pointer
        update *except* at known instruction-count boundaries (CIAO's epoch
        checks), this returns the next such boundary: below it, a batched
        run may fold the notifications of consecutive same-warp issues into
        none at all (the pointer already names the warp) and must call
        ``notify_issue`` exactly at the boundary instruction.  ``None`` (the
        default) means "no such structure: call per instruction".
        """
        return None

    def on_cycle_due(self) -> Optional[int]:
        """First future cycle at which :meth:`on_cycle` may act (or ``None``).

        Schedulers whose ``on_cycle`` is periodic (CCWS, statPCAL: an early
        return unless ``now`` reached the next update point) expose that
        point here so the vector engine can skip the provably-no-op calls
        inside a batched run.  ``None`` (the default) means "unknown: call
        ``on_cycle`` every cycle", which disables batching across cycles for
        schedulers that define ``on_cycle`` without this hint.
        """
        return None

    def __init__(self) -> None:
        self.sm = None  # type: ignore[assignment]

    # -- lifecycle -----------------------------------------------------------
    def attach(self, sm) -> None:
        """Bind the scheduler to its SM after kernel launch."""
        self.sm = sm

    def on_cycle(self, now: int) -> None:
        """Per-cycle bookkeeping hook."""

    # -- the one mandatory method ---------------------------------------------
    def select(self, issuable: Sequence[Warp], now: int) -> Optional[Warp]:
        """Choose the warp to issue this cycle; ``None`` issues nothing."""
        raise NotImplementedError

    # -- feedback hooks ---------------------------------------------------------
    def notify_issue(self, warp: Warp, instruction: Instruction, now: int) -> None:
        """Called after an instruction issued."""

    def notify_global_access(
        self,
        warp: Warp,
        hit: bool,
        vta_hit: Optional[VTAHit],
        destination: str,
        now: int,
    ) -> None:
        """Called for every global-memory transaction."""

    def should_bypass_l1(self, warp: Warp, now: int) -> bool:
        """Return True to bypass the L1D for this warp's next access."""
        return False

    def on_warp_retired(self, warp: Warp, now: int) -> None:
        """Called when a warp finishes."""

    def on_no_progress(self, now: int) -> bool:
        """Livelock guard: un-throttle something; return True if acted."""
        return False

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def greedy_then_oldest(issuable: Sequence[Warp], last_wid: Optional[int]) -> Warp:
        """The GTO ordering rule shared by several policies.

        Keep issuing the warp issued last (greedy); when it cannot issue,
        fall back to the oldest warp (smallest assignment time, then lowest
        warp id).
        """
        if last_wid is not None:
            for warp in issuable:
                if warp.wid == last_wid:
                    return warp
        # Manual first-minimum scan of (assigned_at, wid) — equivalent to
        # min() with a key tuple, without the per-warp lambda/tuple cost.
        best = issuable[0]
        best_age = best.assigned_at
        best_wid = best.wid
        for warp in issuable:
            age = warp.assigned_at
            if age < best_age or (age == best_age and warp.wid < best_wid):
                best = warp
                best_age = age
                best_wid = warp.wid
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
