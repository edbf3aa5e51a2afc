"""The CIAO cache-interference detector.

This module implements the micro-architectural state of Figure 6:

* per-warp **VTA-hit counters** (``VTACount0-k``) and the per-SM total
  instruction counter, from which the *Individual Re-reference Score*
  (Eq. 1) is computed::

        IRS_i = F_vta_hits(i) / (N_executed_inst / N_active_warps)

  i.e. the intensity of lost locality a warp has been suffering, normalised
  by how much work one warp's share of the machine has done;

* the **interference list**: for every warp, the WID of the warp that has
  most recently *and* most frequently interfered with it, protected by a
  2-bit saturating counter so a sporadic interferer cannot displace a
  persistent one (Section III-A);

* the **pair list**: for every warp, which interfered warp triggered CIAO to
  (field 0) redirect the warp's requests to shared memory or (field 1) stall
  it -- consulted later to decide when to undo those actions
  (Section IV-A).

The detector is fed by the SM through the scheduler's
``notify_global_access`` hook (every VTA hit carries the victim and the
aggressor WID) and queried by :class:`repro.core.ciao_scheduler.CIAOScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import CIAOParameters


@dataclass
class InterferenceListEntry:
    """Most recently/frequently interfering warp for one interfered warp."""

    interfering_wid: int = -1
    counter: int = 0


@dataclass
class PairListEntry:
    """Which interfered warp triggered actions against this (interfering) warp.

    ``redirect_trigger`` corresponds to the first field in the paper (set
    when the warp's requests were redirected to shared memory);
    ``stall_trigger`` to the second field (set when the warp was stalled).
    ``-1`` means cleared.
    """

    redirect_trigger: int = -1
    stall_trigger: int = -1


@dataclass
class DetectorStats:
    """Counters describing detector activity."""

    vta_hit_events: int = 0
    interference_list_updates: int = 0
    interference_list_replacements: int = 0


class InterferenceDetector:
    """Tracks per-warp interference state for one SM."""

    def __init__(self, params: Optional[CIAOParameters] = None) -> None:
        self.params = params or CIAOParameters()
        self.params.validate()
        #: Cumulative VTA hits since the kernel started (the 32-bit hardware
        #: counters of Section V-F).
        self.vta_hit_counts: dict[int, int] = {}
        #: VTA hits within the current / previous high-cutoff epoch window.
        #: The IRS compares *recent* interference against the cutoffs so that
        #: warps are reactivated "as soon as these warps start not to notably
        #: interfere with other warps at runtime" (Section IV-A).
        self._window_hits: dict[int, int] = {}
        self._prev_window_hits: dict[int, int] = {}
        self._window_start_instructions = 0
        self._prev_window_instructions = 0
        self.interference_list: dict[int, InterferenceListEntry] = {}
        self.pair_list: dict[int, PairListEntry] = {}
        self.stats = DetectorStats()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def record_vta_hit(self, interfered_wid: int, interfering_wid: int) -> None:
        """Process one VTA hit: count it and update the interference list.

        The interference-list update follows the 2-bit saturating counter
        protocol of Section III-A / Figure 4c:

        * same interferer as currently recorded -> increment (saturating);
        * different interferer -> decrement; only when the counter reaches
          zero is the recorded interferer replaced by the new one (and the
          counter reset), so the most *frequent* interferer survives bursts
          from others.
        """
        self.stats.vta_hit_events += 1
        self.vta_hit_counts[interfered_wid] = self.vta_hit_counts.get(interfered_wid, 0) + 1
        self._window_hits[interfered_wid] = self._window_hits.get(interfered_wid, 0) + 1

        entry = self.interference_list.setdefault(interfered_wid, InterferenceListEntry())
        self.stats.interference_list_updates += 1
        if entry.interfering_wid == -1:
            entry.interfering_wid = interfering_wid
            entry.counter = 0
            return
        if entry.interfering_wid == interfering_wid:
            entry.counter = min(self.params.saturating_counter_max, entry.counter + 1)
            return
        if entry.counter > 0:
            entry.counter -= 1
            return
        # Counter exhausted: adopt the new most-recent interferer.
        entry.interfering_wid = interfering_wid
        entry.counter = 0
        self.stats.interference_list_replacements += 1

    # ------------------------------------------------------------------
    # Epoch windows
    # ------------------------------------------------------------------
    def advance_window(self, total_instructions: int) -> None:
        """Close the current IRS window (called at each high-cutoff epoch).

        The previous window is retained so that IRS evaluations shortly after
        a window boundary still have a meaningful sample to look at.
        """
        self._prev_window_hits = self._window_hits
        self._prev_window_instructions = max(
            1, total_instructions - self._window_start_instructions
        )
        self._window_hits = {}
        self._window_start_instructions = total_instructions

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def vta_hits(self, wid: int) -> int:
        """Cumulative VTA hits suffered by warp ``wid`` (since kernel start)."""
        return self.vta_hit_counts.get(wid, 0)

    def recent_vta_hits(self, wid: int) -> int:
        """VTA hits of warp ``wid`` in the current + previous epoch window."""
        return self._window_hits.get(wid, 0) + self._prev_window_hits.get(wid, 0)

    def irs(self, wid: int, total_instructions: int, active_warps: int) -> float:
        """Individual Re-reference Score of warp ``wid`` (Eq. 1).

        The score is evaluated over the recent epoch window(s) rather than
        the whole execution so that both detection and reactivation track
        the *latest* interference behaviour, as Section IV-A requires.
        """
        if total_instructions <= 0 or active_warps <= 0:
            return 0.0
        window_instructions = (
            total_instructions - self._window_start_instructions
        ) + self._prev_window_instructions
        if window_instructions <= 0:
            window_instructions = total_instructions
        per_warp_instructions = window_instructions / active_warps
        if per_warp_instructions <= 0:
            return 0.0
        return self.recent_vta_hits(wid) / per_warp_instructions

    def cumulative_irs(self, wid: int, total_instructions: int, active_warps: int) -> float:
        """IRS evaluated over the whole execution (for reporting/analysis)."""
        if total_instructions <= 0 or active_warps <= 0:
            return 0.0
        per_warp_instructions = total_instructions / active_warps
        return self.vta_hits(wid) / per_warp_instructions if per_warp_instructions else 0.0

    def most_interfering(self, wid: int) -> Optional[int]:
        """WID of the warp currently blamed for interfering with ``wid``."""
        entry = self.interference_list.get(wid)
        if entry is None or entry.interfering_wid == -1:
            return None
        return entry.interfering_wid

    def pair_entry(self, wid: int) -> PairListEntry:
        """Pair-list entry for (interfering) warp ``wid``, created on demand."""
        return self.pair_list.setdefault(wid, PairListEntry())

    # ------------------------------------------------------------------
    # Threshold helpers
    # ------------------------------------------------------------------
    def exceeds_high_cutoff(self, wid: int, total_instructions: int, active_warps: int) -> bool:
        """True when warp ``wid`` is severely interfered (IRS > high-cutoff)."""
        return self.irs(wid, total_instructions, active_warps) > self.params.high_cutoff

    def below_low_cutoff(self, wid: int, total_instructions: int, active_warps: int) -> bool:
        """True when warp ``wid``'s interference has subsided (IRS <= low-cutoff)."""
        return self.irs(wid, total_instructions, active_warps) <= self.params.low_cutoff

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all detector state (kernel boundary)."""
        self.vta_hit_counts.clear()
        self._window_hits.clear()
        self._prev_window_hits.clear()
        self._window_start_instructions = 0
        self._prev_window_instructions = 0
        self.interference_list.clear()
        self.pair_list.clear()

    def forget_warp(self, wid: int) -> None:
        """Drop state belonging to a retired warp."""
        self.vta_hit_counts.pop(wid, None)
        self._window_hits.pop(wid, None)
        self._prev_window_hits.pop(wid, None)
        self.interference_list.pop(wid, None)
        self.pair_list.pop(wid, None)

    # ------------------------------------------------------------------
    def storage_bits(self, num_warps: int = 64, wid_bits: int = 6) -> dict[str, int]:
        """Model the SRAM cost of the detector structures (Section V-F).

        Returns bits for the interference list (6-bit WID + 2-bit counter per
        entry), the pair list (two 6-bit WIDs per entry) and the per-warp
        32-bit VTA-hit counters.
        """
        interference_bits = num_warps * (wid_bits + self.params.saturating_counter_bits)
        pair_bits = num_warps * (2 * wid_bits)
        counter_bits = num_warps * 32
        return {
            "interference_list_bits": interference_bits,
            "pair_list_bits": pair_bits,
            "vta_hit_counter_bits": counter_bits,
        }
