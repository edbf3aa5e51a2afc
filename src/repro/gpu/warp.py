"""Per-warp architectural state.

A :class:`Warp` couples an instruction stream (produced by a workload model)
with the scheduling state the SM and the warp schedulers operate on.  Two
single-bit flags mirror the paper's additions to the warp list
(Section IV-A):

* ``active`` -- the V bit.  Schedulers clear it to throttle/stall a warp
  (Best-SWL, CCWS, statPCAL's token logic and CIAO-T all use this).
* ``isolated`` -- the I bit.  When set, CIAO's on-chip memory architecture
  redirects the warp's global memory requests to the shared-memory cache.

A warp is *issuable* when it is not finished, not waiting at a barrier, not
waiting for outstanding loads, not throttled, and its next-ready time has
been reached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.gpu.instruction import Instruction


class WarpState(enum.Enum):
    """Coarse warp lifecycle state (derived, for reporting)."""

    READY = "ready"
    WAITING_MEMORY = "waiting_memory"
    AT_BARRIER = "at_barrier"
    THROTTLED = "throttled"
    FINISHED = "finished"


@dataclass(slots=True)
class Warp:
    """One resident warp on an SM.

    The class uses ``__slots__`` (via ``dataclass(slots=True)``): warps are
    the hottest objects of the simulation and every issue slot reads several
    of their fields, so the dict-free layout measurably reduces both memory
    traffic and attribute-access cost in the SM's inner loop.
    """

    wid: int
    cta_id: int
    instructions: Iterator[Instruction]

    # -- scheduling flags (paper Section IV-A) ------------------------------
    active: bool = True       # V bit: cleared == stalled/throttled by a scheduler
    isolated: bool = False    # I bit: global accesses redirected to shared cache

    # -- execution state -----------------------------------------------------
    finished: bool = False
    pending_loads: int = 0
    #: Outstanding loads allowed before the warp stalls (memory-level
    #: parallelism within one warp; set from the GPU configuration).
    max_pending_loads: int = 4
    at_barrier: bool = False
    ready_at: int = 0
    instructions_issued: int = 0
    assigned_at: int = 0
    #: SM admission sequence number.  Assigned by the SM when the warp
    #: becomes resident; the SM's incremental ready index sorts by it so the
    #: issuable-warp list preserves the historical ``sm.warps`` scan order.
    order: int = 0
    #: Version stamp for the SM's ready-timer heap: bumped on every reindex
    #: so stale heap entries self-invalidate (see sm.py's ready index).
    wait_token: int = 0
    #: Whether the warp currently sits in the SM's ready list (SM-owned).
    in_ready: bool = False

    _peeked: Optional[Instruction] = field(default=None, repr=False)
    _exhausted: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------
    def peek(self) -> Instruction:
        """Return the next instruction without consuming it.

        When the workload stream is exhausted an ``EXIT`` instruction is
        synthesised so every warp terminates cleanly.
        """
        if self._peeked is None:
            if self._exhausted:
                self._peeked = Instruction.exit()
            else:
                try:
                    self._peeked = next(self.instructions)
                except StopIteration:
                    self._exhausted = True
                    self._peeked = Instruction.exit()
        return self._peeked

    def advance(self) -> Instruction:
        """Consume and return the next instruction."""
        instruction = self.peek()
        self._peeked = None
        return instruction

    # ------------------------------------------------------------------
    def is_ready(self, now: int) -> bool:
        """True when the warp could issue, ignoring scheduler throttling.

        Throttling (the V bit) is evaluated separately by the SM because a
        throttled warp is only barred from *global memory* instructions: it
        may still execute ALU work, scratchpad accesses and barriers, which
        both matches how wavefront limiting behaves on real hardware (the
        limited warps are de-prioritised, not frozen mid-CTA) and prevents
        barrier deadlocks in barrier-heavy kernels.
        """
        limit = self.max_pending_loads
        if limit < 1:
            limit = 1
        return (
            not self.finished
            and not self.at_barrier
            and self.pending_loads < limit
            and self.ready_at <= now
        )

    def is_issuable(self, now: int) -> bool:
        """True when the scheduler may issue this warp's next instruction."""
        return self.active and self.is_ready(now)

    @property
    def state(self) -> WarpState:
        """Derived lifecycle state for reporting."""
        if self.finished:
            return WarpState.FINISHED
        if self.at_barrier:
            return WarpState.AT_BARRIER
        if self.pending_loads > 0:
            return WarpState.WAITING_MEMORY
        if not self.active:
            return WarpState.THROTTLED
        return WarpState.READY

    # ------------------------------------------------------------------
    def note_issue(self) -> None:
        """Book-keeping when an instruction issues."""
        self.instructions_issued += 1

    def retire(self) -> None:
        """Mark the warp finished."""
        self.finished = True
        self.active = False
        self.isolated = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Warp(wid={self.wid}, cta={self.cta_id}, state={self.state.value}, "
            f"issued={self.instructions_issued})"
        )
