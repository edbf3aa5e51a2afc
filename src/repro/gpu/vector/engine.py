"""The vector execution engine: batched warp issue over extracted traces.

:class:`VectorSM` subclasses the reference
:class:`~repro.gpu.sm.StreamingMultiprocessor` and drives the *same* warp
objects, schedulers, caches, MSHRs, VTA and shared memory subsystem — every
hook fires with the same arguments at the same simulated cycle — so the
engine is bit-identical to ``reference`` by construction, which
``tests/test_vector_backend.py`` pins against the golden fixtures.  What
changes is how much Python runs per simulated cycle:

* **Batched greedy stretches.**  All GTO-ordered schedulers keep issuing
  the same warp while it can issue (declared via
  ``WarpScheduler.vector_sticky_select``), so the instant a warp issues,
  every following cycle is determined until the warp stalls, a memory event
  falls due, or a barrier/exit changes CTA state.  The engine therefore
  issues the whole stretch in one batched step: runs of latency-1 ALU
  instructions (pre-measured by the trace's ``sticky_end`` array) are
  applied as bulk counter updates, and global-memory / scratchpad
  instructions issue back to back without re-deriving the issuable set or
  re-running selection.  Periodic ``on_cycle`` hooks run at exactly the
  cycles they act (``on_cycle_due``), schedulers whose ``notify_issue`` has
  per-instruction semantics (CIAO's epoch checks) are notified per
  instruction, and the time series is sampled at the exact crossing
  instruction and cycle.
* **Pre-coalesced memory path.**  Global memory instructions replay the
  trace's pre-coalesced blocks from its flat tables: access ``k``'s blocks
  start at ``first = mem_starts[k]`` in ``mem_flat``, and its L1D and L2
  set indices sit at the same positions of two flat arrays computed once
  per kernel x geometry
  (:meth:`~repro.gpu.vector.trace.WarpTrace.sets_for_geometry`), so the
  coalescer's dictionary dedup and the per-probe set-index hash become
  index reads.  A one-transaction load reads ``mem_flat[first]`` and the
  two set arrays at ``first`` and runs a fused probe that touches the same
  tag lines and counters as ``Cache.access`` without its layered dispatch;
  the miss path runs a fused interconnect → L2 → DRAM walk with the L2 set
  index precomputed by the same hash.  Scratchpad instructions replay
  bank-conflict costs precomputed per CTA allocation
  (:meth:`~repro.gpu.vector.trace.WarpTrace.shared_costs_for`).
* **Batched stall fast-forward.**  When nothing can issue, no memory event
  is in flight and the no-progress guard is provably a no-op, the clock
  jumps to the earliest warp timer with one scan instead of single-cycle
  stepping.

Schedulers that do not declare the sticky capability (LRR's rotation,
statPCAL's token preference) run through the inherited cycle-by-cycle path
and remain exact.

The batched stretches and the stall fast-forward live in one loop,
:meth:`VectorSM.run_batched`.  The serialized ``vector`` engine runs it with
no horizon (:meth:`VectorSM.run`); the ``lockstep`` engine runs it whenever
an SM is the only one awake, up to the cycle another SM may act, and
otherwise steps its SMs one global cycle at a time through the inherited
primitives (``step_cycle`` and friends), which keep trace replay, the
pre-coalesced memory path and the greedy-select fast path of
:meth:`VectorSM._issue_cycle`.  Between lock-step cycles an SM that cannot
act sleeps (:meth:`VectorSM.sleep_bound` / :meth:`VectorSM.wake`; the
exactness argument is in :mod:`repro.gpu.lockstep`).  A finished SM drops
its references to the interned trace tables (:meth:`VectorSM.finalize`).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import replace
from itertools import islice
from typing import Mapping, Optional

from repro.gpu.cta import KernelLaunch
from repro.gpu.gpu import GPU, SimulationResult
from repro.gpu.instruction import KIND_CODE, WARP_LANES, InstructionKind
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.stats import SMStats
from repro.gpu.vector.trace import REPLAYED, KernelTrace
from repro.mem.mshr import MSHRTarget

_K_STORE = InstructionKind.STORE
_, _C_LOAD, _C_STORE, _C_SHARED_LOAD, _C_SHARED_STORE, _C_BARRIER, _C_EXIT = KIND_CODE.values()


class VectorSM(StreamingMultiprocessor):
    """Reference SM semantics, batched issue loop (see module docstring)."""

    def __init__(
        self,
        sm_id,
        config,
        memory,
        scheduler,
        *,
        enable_shared_cache: bool = False,
        kernel_trace: Optional[KernelTrace] = None,
    ) -> None:
        super().__init__(
            sm_id,
            config,
            memory,
            scheduler,
            enable_shared_cache=enable_shared_cache,
        )
        self._kernel_trace = kernel_trace
        #: wid -> WarpTrace of the resident warp occupying that slot.
        self._traces: dict[int, object] = {}
        #: wid -> L1D / L2 set indices aligned with the trace's
        #: ``mem_flat``, for this machine's cache geometries.
        self._mem_sets: dict[int, array] = {}
        self._mem_sets_l2: dict[int, array] = {}
        #: wid -> per-scratchpad-instruction (cycles, rows) cost table.
        self._shared_costs: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        self._l1d_geometry = (config.l1d.num_sets, config.l1d.set_hash)
        l2_config = memory.l2.cache.config
        self._l2_geometry = (l2_config.num_sets, l2_config.set_hash)
        self._port = memory._ports[sm_id]
        self._l1d_index_fn = self.l1d.mapping._index_fn
        self._batch_warp = None
        self._batch_stalled = False
        self._greedy_warp = None
        self._sticky_ok = False
        self._fast_select_ok = False
        self._notify_greedy_only = False
        self._due_fn = None
        self._may_sleep = False
        #: ``(cycle, repeat)`` of the last refused global access, where
        #: ``repeat`` is its ``(transactions, reservation failed)`` counter
        #: deltas, or ``None`` when they are unknown.
        self._refused: Optional[tuple] = None
        #: The deltas a sleeping SM repeats per lock-step cycle it skips.
        self._repeat: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Launch: substitute trace replay for the generator streams
    # ------------------------------------------------------------------
    def launch(self, kernel: KernelLaunch) -> None:
        ktrace = self._kernel_trace
        if ktrace is not None:
            traces = self._traces
            mem_sets = self._mem_sets
            mem_sets_l2 = self._mem_sets_l2
            shared_costs = self._shared_costs
            l1d_geometry = self._l1d_geometry
            l2_geometry = self._l2_geometry
            shared_memory = self.shared_memory
            traces.clear()
            mem_sets.clear()
            mem_sets_l2.clear()
            shared_costs.clear()

            def replay(cta_index: int, warp_index: int, wid: int):
                warp_trace = ktrace.warp(cta_index, warp_index)
                traces[wid] = warp_trace
                mem_sets[wid] = warp_trace.sets_for_geometry(l1d_geometry)
                mem_sets_l2[wid] = warp_trace.sets_for_geometry(l2_geometry)
                if warp_trace.shared_offsets:
                    entry = shared_memory.smmt.find(f"cta:{cta_index}")
                    base = entry.base if entry is not None else 0
                    limit = (
                        entry.size
                        if entry is not None
                        else shared_memory.capacity_bytes
                    )
                    shared_costs[wid] = warp_trace.shared_costs_for(
                        base,
                        limit,
                        bank_width=shared_memory.BANK_WIDTH_BYTES,
                        num_banks=shared_memory.NUM_BANKS,
                    )
                return warp_trace.replay()

            kernel = replace(kernel, stream_factory=replay)
        self._greedy_warp = None
        super().launch(kernel)
        scheduler = self.scheduler
        self._sticky_ok = (
            ktrace is not None
            and self._issue_width == 1
            and bool(getattr(scheduler, "vector_sticky_select", False))
        )
        self._fast_select_ok = self._sticky_ok and bool(
            getattr(scheduler, "vector_select_pure_greedy", False)
        )
        self._notify_greedy_only = bool(
            getattr(scheduler, "vector_notify_greedy_only", False)
        )
        self._due_fn = (
            getattr(scheduler, "on_cycle_due", None)
            if self._hooks.on_cycle is not None
            else None
        )
        self._notify_due_fn = getattr(scheduler, "vector_notify_due", None)
        hooks = self._hooks
        self._may_sleep = (
            self._sticky_ok
            and (hooks.on_cycle is None or self._due_fn is not None)
            and hooks.should_bypass_l1 is None
        )

    # ------------------------------------------------------------------
    # Main loop (the stepping primitives stay inherited and exact)
    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> SMStats:
        if self._kernel is None:
            raise RuntimeError("launch() must be called before run()")
        budget = max_cycles if max_cycles is not None else self.config.max_cycles
        now, _ = self.run_batched(self.cycle, budget)
        return self.finalize(now)

    def run_batched(
        self, now: int, limit: int, fill_cap: Optional[int] = None
    ) -> tuple[int, int]:
        """Advance alone from ``now`` until drained or the clock reaches ``limit``.

        Greedy stretches stop at ``limit``; a stall jumps to the SM's next
        fill or ``fill_cap``, whichever comes first, and may pass ``limit``
        (the lock-step driver's own fast-forward jumps just as far).  Returns
        the new time and the number of lock-step iterations covered: one per
        cycle the SM was stepped or issued in a stretch.  The count is exact
        whenever ``fill_cap`` is given; without one (no other SM in flight) a
        no-progress wait may cover several iterations and counts as one.
        """
        sticky = self._sticky_ok
        iterations = 0
        while self.has_work() and now < limit:
            iterations += 1
            if self.step_cycle(now):
                now += 1
                if sticky and self._batch_warp is not None:
                    start = now
                    now = self._issue_sticky_run(self._batch_warp, now, limit)
                    iterations += now - start
                    if self._batch_stalled:
                        # The batched stretch ended on a structural hazard at
                        # `now` (stall already recorded by the attempt, like
                        # the reference's failed issue cycle): finish the
                        # cycle through the not-issued branch.
                        self._batch_stalled = False
                        iterations += 1
                        now = self._stall_step(now, limit, fill_cap)
                continue
            now = self._stall_step(now, limit, fill_cap)
        return now, iterations

    def _stall_step(self, now: int, budget: int, fill_cap: Optional[int] = None) -> int:
        """The reference loop's not-issued branch, batched where inert.

        ``fill_cap`` (sleeping SMs' earliest fill) joins the SM's own next
        fill in the fast-forward target, as in the lock-step driver.
        """
        next_event = self.next_event_time()
        if fill_cap is not None and (next_event is None or fill_cap < next_event):
            next_event = fill_cap
        if next_event is not None and next_event > now:
            self.record_stall(next_event - now)
            return next_event
        if next_event is None and not self.can_issue(now):
            return self._no_progress_wait(now, budget)
        self.record_stall(1)
        return now + 1

    def _issue_cycle(self, now: int) -> bool:
        """The reference issue stage, plus the greedy fast path.

        For pure-greedy schedulers (``vector_select_pure_greedy``), when the
        greedy warp is issuable the selection outcome is already determined
        — ``select`` is side-effect free and returns it whatever else is
        issuable — so the issuable list is not built at all.  Every other
        case (greedy warp stalled or retired, scheduler with selection
        state such as two-level's fetch groups, issue width > 1) runs the
        reference loop verbatim.
        """
        hooks = self._hooks
        if hooks.on_cycle is not None:
            hooks.on_cycle(now)
        self._batch_warp = None
        if self._fast_select_ok:
            warp = self._greedy_warp
            if (
                warp is not None
                and not warp.finished
                and not warp.at_barrier
                and warp.ready_at <= now
                and warp.pending_loads
                < (warp.max_pending_loads if warp.max_pending_loads > 0 else 1)
                and (warp.active or self._inactive_may_issue(warp))
            ):
                instruction = warp._peeked
                if instruction is None:
                    instruction = warp.peek()
                if not self._execute(warp, instruction, now):
                    # Structural hazard: like the reference loop, the cycle
                    # ends without an issue (issue width is 1 here).
                    return False
                warp._peeked = None
                warp.note_issue(instruction, now)
                self._record_issue(warp.wid)
                self._reindex_warp(warp)
                notify_issue = hooks.notify_issue
                if notify_issue is not None:
                    notify_issue(warp, instruction, now)
                self._batch_warp = warp
                return True
        issued_any = False
        select = self._select
        notify_issue = hooks.notify_issue
        record_issue = self._record_issue
        for _ in range(self._issue_width):
            issuable = self._issuable_warps(now)
            if not issuable:
                break
            warp = select(issuable, now)
            if warp is None:
                break
            instruction = warp._peeked
            if instruction is None:
                instruction = warp.peek()
            if not self._execute(warp, instruction, now):
                break
            warp._peeked = None
            warp.note_issue(instruction, now)
            record_issue(warp.wid)
            self._reindex_warp(warp)
            if notify_issue is not None:
                notify_issue(warp, instruction, now)
            issued_any = True
            self._batch_warp = warp
            self._greedy_warp = warp
        return issued_any

    def _retire_warp(self, warp, now: int) -> None:
        if self._greedy_warp is warp:
            # Mirrors the schedulers' on_warp_retired bookkeeping: a retired
            # greedy warp stops being sticky, so selection must run again.
            self._greedy_warp = None
        super()._retire_warp(warp, now)

    def finalize(self, now: int) -> SMStats:
        stats = super().finalize(now)
        # A finished SM lets go of its job's traces, leaving the intern
        # their only owner.  The SM sits in a reference cycle with its
        # scheduler, so without this an evicted trace's tables and the
        # replay closure (inside ``_kernel``) would live on until the cyclic
        # garbage collector ran.
        self._kernel_trace = None
        self._kernel = None
        self._traces.clear()
        self._mem_sets.clear()
        self._mem_sets_l2.clear()
        self._shared_costs.clear()
        return stats

    # ------------------------------------------------------------------
    # Sleeping between lock-step cycles
    # ------------------------------------------------------------------
    def sleep_bound(self, now: int) -> Optional[int]:
        """Cycle before which every further step repeats this one, if any.

        Called by the lock-step driver right after a step at ``now`` that
        issued nothing.  Until the SM's next fill, its next ``on_cycle``
        action and the next warp timer, nothing it reads changes, so every
        later step re-selects the same warp (the sticky ``select`` contract)
        and repeats the same refused access, or again finds nothing
        issuable.  Returns that bound (``None`` when the SM may not sleep)
        and keeps the step's counter deltas for :meth:`wake`.
        """
        events = self._events
        if not self._may_sleep or not events:
            return None
        refused = self._refused
        if refused is not None and refused[0] == now:
            if refused[1] is None:
                return None
            self._repeat = refused[1]
        else:
            self._repeat = None  # nothing was issuable: nothing to repeat
        bound = events[0].time
        if self._due_fn is not None:
            due = self._due_fn()
            if due is None:
                return None
            if due < bound:
                bound = due
        for warp in self._ready_list:
            ready = warp.ready_at
            if now < ready < bound:
                bound = ready
        waiting = self._waiting
        # A heap top at or before `now` means this step took the greedy
        # fast path, which no other warp's timer can redirect.
        if waiting and now < waiting[0][0] < bound:
            bound = waiting[0][0]
        return bound if bound > now + 1 else None

    def wake(self, stalled: int, repeats: int) -> None:
        """Settle a sleep: ``stalled`` lost cycles, ``repeats`` skipped steps."""
        self.record_stall(stalled)
        repeat = self._repeat
        if repeat is None or not repeats:
            return
        transactions, reservation = repeat
        coalescer_stats = self.coalescer.stats
        coalescer_stats.instructions += repeats
        coalescer_stats.transactions += transactions * repeats
        coalescer_stats.lanes += WARP_LANES * repeats
        coalescer_stats.histogram[transactions] += repeats
        stalls = self.stats.stalls
        stalls.mshr_full += repeats
        if reservation:
            stalls.reservation_fail += repeats

    # ------------------------------------------------------------------
    # Batched greedy-stretch issue
    # ------------------------------------------------------------------
    def _issue_sticky_run(self, warp, now: int, budget: int) -> int:
        """Issue the greedy warp's uninterrupted stretch in one batched step.

        Entered right after ``warp`` issued at cycle ``now - 1``; returns the
        new global time.  Exactness argument, per batched cycle ``c``:

        * ``warp`` is verified issuable at ``c`` (timer arrived, pending-load
          window open, global instructions barred while throttled); the
          scheduler's declared stickiness then means ``select`` would return
          ``warp`` whatever else became issuable;
        * no due fill event exists (the stretch stops before the next event
          time), so ``step_cycle`` would drain nothing;
        * latency-1 ALU runs touch only the issue counters and are applied
          in bulk; memory and scratchpad instructions execute through the
          standard (fused) paths one cycle at a time;
        * ``on_cycle`` is invoked at exactly the cycles where it acts
          (``on_cycle_due``), ``notify_issue`` per instruction unless the
          scheduler declared it greedy-tracking-only, and the time series is
          sampled at the exact crossing instruction and cycle;
        * barriers and exits fall back to the generic path (they mutate CTA
          and admission state), as does a structural hazard — whose failed
          attempt, like the reference's, ends the cycle without an issue
          (``_batch_stalled``).
        """
        trace = self._traces.get(warp.wid)
        if trace is None:
            return now
        hooks = self._hooks
        on_cycle = hooks.on_cycle
        due_fn = self._due_fn
        if on_cycle is not None and due_fn is None:
            return now
        notify = hooks.notify_issue
        per_instr_notify = notify is not None and not self._notify_greedy_only
        notify_due_fn = self._notify_due_fn if per_instr_notify else None
        notify_due = notify_due_fn() if notify_due_fn is not None else None
        sticky_end = trace.sticky_end
        kind_codes = trace.kind_codes
        access_index = trace.access_index
        stats = self.stats
        per_warp = stats.per_warp_instructions
        events = self._events
        wid = warp.wid
        pending_limit = warp.max_pending_loads
        if pending_limit < 1:
            pending_limit = 1
        issued_in_batch = False
        while True:
            # The warp must be issuable *now* for stickiness to apply: the
            # preceding instruction may have left a multi-cycle timer
            # (scratchpad bank conflicts) or filled the pending-load window,
            # in which case the reference engine falls back to another warp.
            if (
                warp.finished
                or warp.at_barrier
                or warp.ready_at > now
                or warp.pending_loads >= pending_limit
                or now >= budget
            ):
                break
            if events and events[0].time <= now:
                break
            if warp._peeked is not None:
                # A prior issuability probe pre-fetched the next instruction;
                # the skips below must stay aligned with the iterator, so
                # let the generic path consume it.
                break
            i = warp.instructions_issued
            run_end = sticky_end[i]
            if run_end > i:
                # ---- bulk latency-1 ALU run --------------------------
                k = run_end - i
                room = budget - now
                if k > room:
                    k = room
                if events:
                    gap = events[0].time - now
                    if k > gap:
                        k = gap
                sample_gap = self._next_sample_at - stats.instructions_issued
                if k > sample_gap:
                    k = sample_gap
                if on_cycle is not None:
                    due = due_fn()
                    if due is None:
                        break
                    if due <= now:
                        on_cycle(now)
                        due = due_fn()
                        if due is None or due <= now:
                            break
                    if k > due - now:
                        k = due - now
                if k <= 0:
                    break
                if per_instr_notify and notify_due is None:
                    # Unknown notify semantics: call per instruction.
                    cycle = now
                    for j in range(i, i + k):
                        warp.instructions_issued += 1
                        stats.instructions_issued += 1
                        per_warp[wid] = per_warp.get(wid, 0) + 1
                        notify(warp, REPLAYED[kind_codes[j]], cycle)
                        cycle += 1
                else:
                    if notify_due is not None:
                        # Below the boundary, notify_issue only re-writes the
                        # greedy pointer (already this warp): skip the calls
                        # and fire exactly at the boundary instruction.
                        notify_gap = notify_due - stats.instructions_issued
                        if notify_gap < 1:
                            notify_gap = 1
                        if k > notify_gap:
                            k = notify_gap
                    warp.instructions_issued += k
                    stats.instructions_issued += k
                    per_warp[wid] = per_warp.get(wid, 0) + k
                    if notify_due is not None and stats.instructions_issued >= notify_due:
                        notify(warp, REPLAYED[kind_codes[i + k - 1]], now + k - 1)
                        notify_due = notify_due_fn()
                    # Greedy-tracking-only notify is skipped outright: the
                    # pointer already names this warp.
                warp.last_issue_cycle = now + k - 1
                warp.ready_at = now + k
                now += k
                issued_in_batch = True
                # Advance the replay iterator past the batched instructions.
                deque(islice(warp.instructions, k), maxlen=0)
                if stats.instructions_issued >= self._next_sample_at:
                    self.cycle = now - 1
                    self._maybe_sample()
                continue
            # ---- single non-ALU instruction at cycle `now` -----------
            kind_code = kind_codes[i]
            if kind_code == _C_BARRIER or kind_code == _C_EXIT:
                break
            # The scheduler's per-cycle hook runs first, as in the reference
            # loop: a periodic decision due at `now` (CCWS's cutoff) may
            # throttle this very warp before it issues.
            if on_cycle is not None:
                due = due_fn()
                if due is None:
                    break
                if due <= now:
                    on_cycle(now)
                    due = due_fn()
                    if due is None or due <= now:
                        break
            if not warp.active and (kind_code == _C_LOAD or kind_code == _C_STORE):
                # Throttled warps may not issue global memory instructions
                # (unless their CTA is parked at a barrier — the reference
                # engine's _inactive_may_issue safeguard): not issuable.
                cta = self.ctas.get(warp.cta_id)
                if cta is not None and cta.num_at_barrier == 0:
                    break
            instruction = REPLAYED[kind_code]
            self.cycle = now
            if kind_code == _C_LOAD or kind_code == _C_STORE:
                ok = self._execute_global_traced(
                    warp, trace, access_index[i], instruction, now
                )
            elif kind_code == _C_SHARED_LOAD or kind_code == _C_SHARED_STORE:
                ok = self._execute_scratchpad(warp, instruction, now)
            else:
                ok = self._execute(warp, instruction, now)
            if not ok:
                # Structural hazard: the attempt happened (and recorded its
                # stall) at `now`; the cycle ends without an issue.
                self._batch_stalled = True
                break
            next(warp.instructions, None)  # consume from the replay iterator
            warp.note_issue(instruction, now)
            stats.instructions_issued += 1
            per_warp[wid] = per_warp.get(wid, 0) + 1
            # No per-issue _reindex_warp: nothing queries the ready index
            # until the batch ends, where the warp is re-filed once.
            if per_instr_notify:
                if notify_due is None or stats.instructions_issued >= notify_due:
                    notify(warp, instruction, now)
                    if notify_due is not None:
                        notify_due = notify_due_fn()
            issued_in_batch = True
            if stats.instructions_issued >= self._next_sample_at:
                self._maybe_sample()
            now += 1
        self.cycle = now - 1
        if issued_in_batch:
            self._reindex_warp(warp)
        return now

    # ------------------------------------------------------------------
    # Batched no-progress wait
    # ------------------------------------------------------------------
    def _no_progress_wait(self, now: int, budget: int) -> int:
        """One no-progress step, fast-forwarded when it is provably inert.

        The reference loop, when nothing can issue and no event is in
        flight, calls the livelock guard and stalls one cycle at a time.
        When the guard cannot act — the scheduler has no ``on_no_progress``
        hook and no warp qualifies for the generic reactivation — every such
        cycle is a pure stall, so the clock jumps to the earliest warp
        timer (or the budget) in one step with an identical stall count.
        """
        if self._hooks.on_no_progress is not None:
            self.handle_no_progress()
            self.record_stall(1)
            return now + 1
        for candidate in self.warps:
            if (
                not candidate.finished
                and not candidate.active
                and candidate.pending_loads == 0
                and not candidate.at_barrier
            ):
                candidate.active = True
                self.stats.reactivate_events += 1
                self.record_stall(1)
                return now + 1
        target = budget
        for candidate in self.warps:
            if candidate.finished or candidate.at_barrier:
                continue
            limit = candidate.max_pending_loads
            if limit < 1:
                limit = 1
            if candidate.pending_loads >= limit:
                continue
            ready = candidate.ready_at
            if now < ready < target:
                target = ready
        if target <= now:
            self.record_stall(1)
            return now + 1
        self.record_stall(target - now)
        return target

    # ------------------------------------------------------------------
    # Pre-coalesced global-memory path
    # ------------------------------------------------------------------
    def _execute_global(self, warp, instruction, now: int) -> bool:
        trace = self._traces.get(warp.wid)
        if trace is not None:
            index = warp.instructions_issued
            mem_ix = trace.access_index[index]
            if mem_ix >= 0 and REPLAYED[trace.kind_codes[index]] is instruction:
                return self._execute_global_traced(
                    warp, trace, mem_ix, instruction, now
                )
        # No trace, or a replay desync (e.g. a test hand-fed this SM a
        # foreign stream): fall back to the reference path rather than guess.
        if super()._execute_global(warp, instruction, now):
            return True
        self._refused = (now, None)  # deltas unknown: no sleeping on it
        return False

    def _refuse(self, now: int, transactions: int, reservation: bool) -> bool:
        """Count a global access refused for want of MSHR or L1D room.

        Keeps the attempt's counter deltas (beyond the coalescer accounting
        already done) so a sleeping SM can repeat them (:meth:`sleep_bound`).
        """
        stalls = self.stats.stalls
        if reservation:
            stalls.reservation_fail += 1
        stalls.mshr_full += 1
        self._refused = (now, (transactions, reservation))
        return False

    def _execute_global_traced(self, warp, trace, mem_ix, instruction, now):
        starts = trace.mem_starts
        first = starts[mem_ix]
        transactions = starts[mem_ix + 1] - first
        wid = warp.wid
        is_write = instruction.kind is _K_STORE
        shared_cache = self.shared_cache
        use_shared = (
            warp.isolated and shared_cache is not None and shared_cache.num_lines > 0
        )
        bypass = False
        should_bypass_l1 = self._hooks.should_bypass_l1
        if not use_shared and should_bypass_l1 is not None:
            bypass = bool(should_bypass_l1(warp, now))
        # Coalescer accounting precedes the resource check, exactly like the
        # reference path (a replayed attempt is re-counted there too).
        coalescer_stats = self.coalescer.stats
        coalescer_stats.instructions += 1
        coalescer_stats.transactions += transactions
        coalescer_stats.lanes += WARP_LANES
        coalescer_stats.histogram[transactions] = (
            coalescer_stats.histogram.get(transactions, 0) + 1
        )
        stats = self.stats
        plain_load = not is_write and not use_shared and not bypass
        if plain_load and transactions == 1:
            return self._execute_single_load(
                warp,
                trace.mem_flat[first],
                self._mem_sets[wid][first],
                self._mem_sets_l2[wid][first],
                now,
            )
        end = first + transactions
        blocks = trace.mem_flat[first:end]
        if is_write:
            stats.global_memory_instructions += 1
            for block in blocks:
                self._issue_store(warp, block, now, use_shared)
            warp.ready_at = now + 1
            return True
        sets = self._mem_sets[wid][first:end]
        if not self._resources_ok(blocks, sets, use_shared, bypass, now):
            return False
        stats.global_memory_instructions += 1
        latency_floor = now + 1
        if not plain_load:
            for block in blocks:
                ready = self._issue_load(warp, block, now, use_shared, bypass)
                if ready is not None and ready > latency_floor:
                    latency_floor = ready
            warp.ready_at = latency_floor
            return True
        # -- fused L1D load path (the hot case) --------------------------
        l1d = self.l1d
        tag_sets = l1d.tags._sets
        l1d_stats = l1d.stats
        notify = self._hooks.notify_global_access
        hit_latency = l1d.hit_latency
        l2_sets = self._mem_sets_l2[wid][first:end]
        mshr = self.mshr
        for position in range(transactions):
            block = blocks[position]
            line = None
            for candidate in tag_sets[sets[position]]:
                if candidate.tag == block:
                    line = candidate
                    break
            if line is not None:
                line.last_used_at = now
                l1d_stats.hits += 1
                l1d_stats.per_warp_hits[wid] = (
                    l1d_stats.per_warp_hits.get(wid, 0) + 1
                )
                if not line.reserved:
                    ready = now + hit_latency
                    if ready > latency_floor:
                        latency_floor = ready
                    if notify is not None:
                        notify(warp, True, None, "l1d", now)
                    continue
                # HIT_RESERVED: merge onto the outstanding fill.
                target = MSHRTarget(wid=wid, request_id=self._next_request_id())
                entry, is_new = mshr.allocate(block, target, now, destination="l1d")
                if entry is None:
                    stats.stalls.mshr_full += 1
                else:
                    warp.pending_loads += 1
                    if is_new:
                        # Defensive (mirrors _merge_or_allocate): a reserved
                        # line without an MSHR entry still requests the fill.
                        completion = self._read_block_fused(
                            block, l2_sets[position], wid, now
                        )
                        self._schedule_fill(block, completion, destination="l1d")
                if notify is not None:
                    notify(warp, False, None, "l1d", now)
                continue
            self._fused_miss(
                warp,
                block,
                sets[position],
                l2_sets[position],
                now,
                notify,
                l1d.tags.find_victim(sets[position]),
            )
        warp.ready_at = latency_floor
        return True

    def _execute_single_load(self, warp, block, set_index, l2_set, now):
        """Resource check + execution of a one-transaction L1D load, fused.

        With a single transaction nothing can mutate the set between the
        reference engine's pre-check and its execution, so the probe and
        victim search run once and serve both.
        """
        mshr = self.mshr
        entry = mshr._entries.get(block)
        tags = self.l1d.tags
        line = None
        for candidate in tags._sets[set_index]:
            if candidate.tag == block:
                line = candidate
                break
        victim = None
        if entry is not None:
            if len(entry.targets) >= mshr.max_merged:
                return self._refuse(now, 1, False)
            if line is None:
                victim = tags.find_victim(set_index)
        elif line is None:
            victim = tags.find_victim(set_index)
            if victim is None:
                return self._refuse(now, 1, True)
            if len(mshr._entries) >= mshr.num_entries:
                return self._refuse(now, 1, False)
        stats = self.stats
        stats.global_memory_instructions += 1
        notify = self._hooks.notify_global_access
        wid = warp.wid
        if line is not None:
            l1d_stats = self.l1d.stats
            line.last_used_at = now
            l1d_stats.hits += 1
            l1d_stats.per_warp_hits[wid] = l1d_stats.per_warp_hits.get(wid, 0) + 1
            if not line.reserved:
                ready = now + self.l1d.hit_latency
                warp.ready_at = ready if ready > now + 1 else now + 1
                if notify is not None:
                    notify(warp, True, None, "l1d", now)
                return True
            target = MSHRTarget(wid=wid, request_id=self._next_request_id())
            entry, is_new = mshr.allocate(block, target, now, destination="l1d")
            if entry is None:
                stats.stalls.mshr_full += 1
            else:
                warp.pending_loads += 1
                if is_new:
                    completion = self._read_block_fused(block, l2_set, wid, now)
                    self._schedule_fill(block, completion, destination="l1d")
            if notify is not None:
                notify(warp, False, None, "l1d", now)
            warp.ready_at = now + 1
            return True
        self._fused_miss(warp, block, set_index, l2_set, now, notify, victim)
        warp.ready_at = now + 1
        return True

    def _fused_miss(self, warp, block, set_index, l2_set, now, notify, victim):
        """The L1D demand-miss path of ``Cache.access`` + ``_load_via_l1d``.

        ``victim`` is the set's ``find_victim`` result, searched by the
        caller.  Reserves it (when the set allows it), records the eviction
        in the VTA, probes lost locality, allocates/merges the MSHR entry and
        requests the fill — same objects, same counters, same order.
        """
        l1d = self.l1d
        l1d_stats = l1d.stats
        wid = warp.wid
        if victim is None:
            l1d_stats.reservation_fails += 1
            eviction = None
        else:
            eviction = l1d.tags.fill_line(
                victim, set_index, block, owner_wid=wid, now=now, reserve=True
            )
            l1d_stats.misses += 1
            l1d_stats.per_warp_misses[wid] = (
                l1d_stats.per_warp_misses.get(wid, 0) + 1
            )
            if eviction is not None:
                l1d_stats.evictions += 1
                if eviction.dirty:
                    l1d_stats.writebacks += 1
        vta = self.vta
        if eviction is not None:
            vta.record_eviction(eviction.owner_wid, eviction.tag, wid)
        vta_hit = vta.probe(wid, block)
        if vta_hit is not None:
            self.stats.record_vta_hit(vta_hit.wid, vta_hit.evictor_wid)
        target = MSHRTarget(wid=wid, request_id=self._next_request_id())
        entry, is_new = self.mshr.allocate(block, target, now, destination="l1d")
        if entry is None:
            self.stats.stalls.mshr_full += 1
        else:
            warp.pending_loads += 1
            if is_new:
                completion = self._read_block_fused(block, l2_set, wid, now)
                self._schedule_fill(block, completion, destination="l1d")
        if notify is not None:
            notify(warp, False, vta_hit, "l1d", now)

    def _read_block_fused(self, block: int, l2_set: int, wid: int, now: int) -> int:
        """``MemorySubsystem.read_block`` with the L2 set index precomputed.

        Replicates the interconnect injection, the L2 slice port, the L2
        cache access (same tag lines, same counters), DRAM service on a miss
        and the response-path latency — state and arithmetic are shared with
        the reference implementation, only the layered dispatch and the
        per-access set hash are gone.
        """
        port = self._port
        port_config = port.config
        serialization = 128.0 / port_config.bytes_per_cycle
        start = float(now)
        if start < port._port_free_at:
            start = port._port_free_at
        port._port_free_at = start + serialization
        port.packets += 1
        arrival = int(start + serialization + port_config.latency)

        l2_slice = self.memory.l2
        slice_start = float(arrival)
        if slice_start < l2_slice._port_free_at:
            slice_start = l2_slice._port_free_at
        l2_slice._port_free_at = slice_start + l2_slice.port_cycles
        at = int(slice_start)
        l2_cache = l2_slice.cache
        l2_stats = l2_cache.stats
        lines = l2_cache.tags._sets[l2_set]
        line = None
        for candidate in lines:
            if candidate.tag == block:
                line = candidate
                break
        ready = at + l2_cache.hit_latency
        if line is not None:
            line.last_used_at = at
            l2_stats.hits += 1
            l2_stats.per_warp_hits[wid] = l2_stats.per_warp_hits.get(wid, 0) + 1
            return ready + port_config.latency
        victim = l2_cache.tags.find_victim(l2_set)
        if victim is None:
            l2_stats.reservation_fails += 1
            return ready + port_config.latency
        eviction = l2_cache.tags.fill_line(
            victim, l2_set, block, owner_wid=wid, now=at, reserve=True
        )
        l2_stats.misses += 1
        l2_stats.per_warp_misses[wid] = l2_stats.per_warp_misses.get(wid, 0) + 1
        writeback = None
        if eviction is not None:
            l2_stats.evictions += 1
            if eviction.dirty:
                l2_stats.writebacks += 1
                writeback = eviction.tag
        dram = l2_slice.dram
        ready = dram.service(block, ready, is_write=False, requester=self.sm_id)
        # L2 fill: clear the reservation at the data-ready time.
        for candidate in lines:
            if candidate.tag == block:
                candidate.reserved = False
                candidate.last_used_at = ready
                break
        if writeback is not None:
            dram.service(writeback, at, is_write=True, requester=self.sm_id)
        return ready + port_config.latency

    def _complete_fill(self, event, now: int) -> None:
        """Reference fill completion with the L1D probe's set hash hoisted."""
        if event.destination == "l1d":
            block = event.block
            for candidate in self.l1d.tags._sets[self._l1d_index_fn(block)]:
                if candidate.tag == block:
                    candidate.reserved = False
                    candidate.last_used_at = now
                    break
        elif event.destination == "shared" and self.shared_cache is not None:
            self.shared_cache.fill(event.block, now)
        entry = self.mshr.fill(event.block)
        if entry is None:
            return
        by_wid = self._warps_by_wid
        for target in entry.targets:
            warp = by_wid.get(target.wid)
            if warp is not None and warp.pending_loads > 0:
                warp.pending_loads -= 1
                if warp.pending_loads == 0 and warp.ready_at < now + 1:
                    warp.ready_at = now + 1
                self._reindex_warp(warp)

    # ------------------------------------------------------------------
    # Scratchpad path: precomputed bank-conflict costs
    # ------------------------------------------------------------------
    def _execute_scratchpad(self, warp, instruction, now: int) -> bool:
        costs = self._shared_costs.get(warp.wid)
        trace = self._traces.get(warp.wid)
        if costs is None or trace is None:
            return super()._execute_scratchpad(warp, instruction, now)
        index = warp.instructions_issued
        shared_ix = trace.access_index[index]
        if shared_ix < 0 or REPLAYED[trace.kind_codes[index]] is not instruction:
            return super()._execute_scratchpad(warp, instruction, now)
        cycles, rows = costs[shared_ix]
        shared_stats = self.shared_memory.stats
        shared_stats.rows_touched.update(rows)
        shared_stats.accesses += 1
        shared_stats.bank_conflict_cycles += cycles - 1
        warp.ready_at = now + (cycles if cycles > 1 else 1)
        self.stats.shared_memory_instructions += 1
        return True

    def _resources_ok(
        self, blocks, sets, use_shared: bool, bypass: bool, now: int
    ) -> bool:
        """``_memory_resources_available`` over pre-hashed transactions.

        A refusal is counted through :meth:`_refuse`.
        """
        free_needed = 0
        mshr = self.mshr
        entries = mshr._entries
        max_merged = mshr.max_merged
        l1d = self.l1d
        tag_sets = l1d.tags._sets
        line_size = l1d.config.line_size
        probe_l1d = not use_shared and not bypass
        for position, block in enumerate(blocks):
            entry = entries.get(block)
            if entry is not None:
                if len(entry.targets) >= max_merged:
                    return self._refuse(now, len(blocks), False)
                continue
            if probe_l1d:
                line = None
                for candidate in tag_sets[sets[position]]:
                    if candidate.tag == block:
                        line = candidate
                        break
                if line is not None:
                    continue
                if l1d.tags.find_victim(sets[position]) is None:
                    return self._refuse(now, len(blocks), True)
            elif (
                use_shared
                and self.shared_cache is not None
                and self.shared_cache.contains(block * line_size)
            ):
                continue
            free_needed += 1
        if len(entries) + free_needed > mshr.num_entries:
            return self._refuse(now, len(blocks), False)
        return True


class VectorGPU(GPU):
    """A :class:`GPU` whose SMs are :class:`VectorSM` replaying traces.

    ``sm_traces`` maps the id of every SM the machine builds to the
    :class:`KernelTrace` that SM replays: one shared trace for a
    single-kernel launch, each tenant's own trace on its partition for a
    co-located one.  The machine drives its SMs serially (:meth:`run`, the
    ``vector`` engine) or in lock step (:func:`repro.gpu.lockstep.run_lockstep`
    / :func:`~repro.gpu.lockstep.run_multi_tenant`, the ``lockstep`` engine).
    """

    sm_class = VectorSM

    def __init__(self, *args, sm_traces: Mapping[int, KernelTrace], **kwargs):
        super().__init__(*args, **kwargs)
        self._sm_traces = sm_traces

    def _new_sm(self, sm_id, scheduler, *, enable_shared_cache):
        return VectorSM(
            sm_id,
            self.config,
            self.memory,
            scheduler,
            enable_shared_cache=enable_shared_cache,
            kernel_trace=self._sm_traces[sm_id],
        )

    def run(
        self,
        kernel: KernelLaunch,
        *,
        max_cycles: Optional[int] = None,
        scheduler_name: str = "",
    ) -> SimulationResult:
        """Serialized per-SM execution, labelled with the ``vector`` engine."""
        per_sm_stats = [sm.run(max_cycles) for sm in self.build_sms(kernel)]
        return self.collect_result(
            kernel, per_sm_stats, scheduler_name=scheduler_name, backend="vector"
        )
