"""CIAO warp scheduling (Algorithm 1) in its three variants.

* **CIAO-P** (``PARTITION_ONLY``): only the on-chip memory architecture is
  used -- severely interfering warps have their global requests redirected
  to the shared-memory cache; no warp is ever stalled.
* **CIAO-T** (``THROTTLE_ONLY``): only selective throttling is used -- the
  most-interfering warp of a severely interfered warp is stalled (V bit
  cleared); nothing is redirected.
* **CIAO-C** (``COMBINED``): the full scheme.  An interfering warp is first
  isolated; if, while isolated, it keeps causing severe interference (now in
  the shared-memory cache, which shares the same VTA), it is stalled.

Decisions are re-evaluated on an instruction-count epoch basis
(Section IV-A): every *high-cutoff epoch* (5000 instructions) warps whose
IRS exceeds the high cutoff get their top interferer isolated or stalled;
every *low-cutoff epoch* (100 instructions) previously isolated / stalled
warps are released as soon as the warp that triggered the action either
finished or no longer suffers interference (IRS below the low cutoff).
Warp ordering between eligible warps is GTO, as in the paper's methodology.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from repro.core.ciao_memory import CIAOOnChipMemory
from repro.core.config import CIAOParameters
from repro.core.interference import InterferenceDetector
from repro.gpu.instruction import Instruction
from repro.gpu.warp import Warp
from repro.mem.victim_tag_array import VTAHit
from repro.sched.base import WarpScheduler


class CIAOMode(enum.Enum):
    """Which CIAO mechanisms are enabled."""

    PARTITION_ONLY = "ciao-p"
    THROTTLE_ONLY = "ciao-t"
    COMBINED = "ciao-c"


class CIAOScheduler(WarpScheduler):
    """Cache Interference-Aware thrOughput-oriented warp scheduler."""

    # GTO ordering: select re-picks the last-issued warp while it can issue.
    # notify_issue runs the instruction-count epoch checks, so it must be
    # called once per issued instruction (vector_notify_greedy_only stays
    # False and the vector engine notifies per instruction inside batches).
    vector_sticky_select = True
    vector_select_pure_greedy = True

    def __init__(
        self,
        mode: CIAOMode = CIAOMode.COMBINED,
        params: Optional[CIAOParameters] = None,
    ) -> None:
        super().__init__()
        self.mode = mode
        self.params = params or CIAOParameters.paper_defaults()
        self.params.validate()
        self.detector = InterferenceDetector(self.params)
        self.memory_arch = CIAOOnChipMemory(self.detector)
        self._last_wid: Optional[int] = None
        self._next_high_check = self.params.high_epoch_instructions
        self._next_low_check = self.params.low_epoch_instructions
        self.name = mode.value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, sm) -> None:
        """Bind to the SM and reset detector state."""
        super().attach(sm)
        self.detector.reset()
        self._next_high_check = self.params.high_epoch_instructions
        self._next_low_check = self.params.low_epoch_instructions
        self._last_wid = None

    @property
    def uses_shared_cache(self) -> bool:
        """True when this variant redirects requests to shared memory."""
        return self.mode in (CIAOMode.PARTITION_ONLY, CIAOMode.COMBINED)

    # ------------------------------------------------------------------
    # Feedback from the memory system
    # ------------------------------------------------------------------
    def notify_global_access(
        self,
        warp: Warp,
        hit: bool,
        vta_hit: Optional[VTAHit],
        destination: str,
        now: int,
    ) -> None:
        """Feed VTA hits (lost locality + attributed aggressor) to the detector."""
        if vta_hit is not None:
            self.detector.record_vta_hit(vta_hit.wid, vta_hit.evictor_wid)

    # ------------------------------------------------------------------
    # Epoch-driven decisions
    # ------------------------------------------------------------------
    def vector_notify_due(self) -> int:
        """Below the next epoch boundary, ``notify_issue`` only tracks the pointer."""
        if self._next_low_check < self._next_high_check:
            return self._next_low_check
        return self._next_high_check

    def notify_issue(self, warp: Warp, instruction: Instruction, now: int) -> None:
        """Advance the greedy pointer and run epoch checks on boundaries."""
        self._last_wid = warp.wid
        if self.sm is None:
            return
        total = self.sm.stats.instructions_issued
        if total >= self._next_low_check:
            self._low_epoch_check()
            while self._next_low_check <= total:
                self._next_low_check += self.params.low_epoch_instructions
        if total >= self._next_high_check:
            self._high_epoch_check()
            self.detector.advance_window(total)
            while self._next_high_check <= total:
                self._next_high_check += self.params.high_epoch_instructions

    # -- helpers ------------------------------------------------------------
    def _resident_warps(self) -> list[Warp]:
        return [w for w in self.sm.warps if not w.finished]

    def _warp_by_wid(self, wid: int) -> Optional[Warp]:
        for warp in self.sm.warps:
            if warp.wid == wid and not warp.finished:
                return warp
        return None

    def _counts(self) -> tuple[int, int]:
        total = max(1, self.sm.stats.instructions_issued)
        active = max(1, len(self._resident_warps()))
        return total, active

    def _trigger_still_relevant(self, trigger_wid: int) -> bool:
        """Algorithm 1 lines 7/15: the trigger warp still runs and still hurts."""
        if trigger_wid < 0:
            return False
        trigger_warp = self._warp_by_wid(trigger_wid)
        if trigger_warp is None:
            return False
        total, active = self._counts()
        irs = self.detector.irs(trigger_wid, total, active)
        return irs > self.params.low_cutoff

    # -- low-cutoff epoch: release stalled / isolated warps ---------------------
    def _low_epoch_check(self) -> None:
        for warp in self._resident_warps():
            pair = self.detector.pair_entry(warp.wid)
            if not warp.active and pair.stall_trigger >= 0:
                # Warp was stalled by CIAO (Algorithm 1 lines 4-11).
                if not self._trigger_still_relevant(pair.stall_trigger):
                    warp.active = True
                    pair.stall_trigger = -1
                    self.sm.stats.reactivate_events += 1
            elif warp.isolated and pair.redirect_trigger >= 0:
                # Warp was redirected to shared memory (lines 12-19).
                if not self._trigger_still_relevant(pair.redirect_trigger):
                    self.memory_arch.restore(warp, self.sm)

    # -- high-cutoff epoch: isolate / stall interferers ---------------------------
    def _high_epoch_check(self) -> None:
        total, active = self._counts()
        for warp in self._resident_warps():
            if not warp.active:
                continue  # Algorithm 1 line 20 considers active warps only.
            irs = self.detector.irs(warp.wid, total, active)
            if irs <= self.params.high_cutoff:
                continue
            interferer_wid = self.detector.most_interfering(warp.wid)
            if interferer_wid is None or interferer_wid == warp.wid:
                continue
            interferer = self._warp_by_wid(interferer_wid)
            if interferer is None or interferer.finished:
                continue
            self._act_on_interferer(interferer, triggered_by=warp.wid)

    def _act_on_interferer(self, interferer: Warp, *, triggered_by: int) -> None:
        """Apply the mode-specific action of Algorithm 1 lines 23-29."""
        pair = self.detector.pair_entry(interferer.wid)
        can_partition = self.uses_shared_cache and self.memory_arch.available(self.sm)
        can_throttle = self.mode in (CIAOMode.THROTTLE_ONLY, CIAOMode.COMBINED)
        if self.mode is CIAOMode.COMBINED:
            if interferer.isolated:
                # Already isolated and still interfering (now at the shared
                # memory): begin to stall it (line 24-26).
                if can_throttle and interferer.active:
                    interferer.active = False
                    pair.stall_trigger = triggered_by
                    self.sm.stats.throttle_events += 1
            elif can_partition:
                self.memory_arch.isolate(interferer, triggered_by, self.sm)
            elif can_throttle and interferer.active:
                # No unused shared memory at all: fall back to throttling.
                interferer.active = False
                pair.stall_trigger = triggered_by
                self.sm.stats.throttle_events += 1
            return
        if self.mode is CIAOMode.PARTITION_ONLY:
            if can_partition and not interferer.isolated:
                self.memory_arch.isolate(interferer, triggered_by, self.sm)
            return
        # THROTTLE_ONLY
        if interferer.active:
            interferer.active = False
            pair.stall_trigger = triggered_by
            self.sm.stats.throttle_events += 1

    # ------------------------------------------------------------------
    # Ordering / bookkeeping
    # ------------------------------------------------------------------
    def select(self, issuable: Sequence[Warp], now: int) -> Optional[Warp]:
        """GTO among the warps CIAO currently allows to run."""
        if not issuable:
            return None
        return self.greedy_then_oldest(issuable, self._last_wid)

    def on_warp_retired(self, warp: Warp, now: int) -> None:
        """Clean up detector state for the retired warp's slot."""
        if self._last_wid == warp.wid:
            self._last_wid = None
        self.memory_arch.forget_warp(warp)
        self.detector.forget_warp(warp.wid)
        # A retired warp may have been the trigger keeping others stalled.
        if self.sm is not None:
            self._low_epoch_check()

    def on_no_progress(self, now: int) -> bool:
        """Release the most recently stalled warp when nothing can run."""
        if self.sm is None:
            return False
        for warp in self._resident_warps():
            pair = self.detector.pair_entry(warp.wid)
            if not warp.active and pair.stall_trigger >= 0 and warp.pending_loads == 0 and not warp.at_barrier:
                warp.active = True
                pair.stall_trigger = -1
                self.sm.stats.reactivate_events += 1
                return True
        return False

    # ------------------------------------------------------------------
    def stalled_warp_count(self) -> int:
        """Number of warps currently stalled by CIAO."""
        if self.sm is None:
            return 0
        return sum(
            1
            for w in self._resident_warps()
            if not w.active and self.detector.pair_entry(w.wid).stall_trigger >= 0
        )
