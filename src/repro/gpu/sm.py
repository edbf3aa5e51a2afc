"""The Streaming Multiprocessor (SM) pipeline model.

One :class:`StreamingMultiprocessor` owns the per-SM resources of Figure 2 in
the paper -- the warp list and scheduler, the L1D cache, the shared memory
(and, when CIAO is active, the shared-memory cache carved out of its unused
space), the MSHRs and the victim tag array -- and runs a warp-level,
cycle-approximate execution loop:

1. memory-fill events that completed by the current cycle are drained,
   waking warps whose outstanding loads returned;
2. the attached warp scheduler picks among issuable warps and one (or
   ``issue_width``) warp instruction(s) issue;
3. memory instructions are coalesced into 128-byte transactions and sent to
   the L1D, to CIAO's shared-memory cache (isolated warps), or directly to
   L2 (statPCAL bypass), allocating MSHRs and scheduling fill events;
4. when nothing can issue and no event is due, the clock jumps to the next
   event, which keeps pure-Python simulation times practical.

The scheduler object is duck-typed (see :class:`repro.sched.base.WarpScheduler`
for the reference interface): the SM calls ``attach``, ``select``,
``on_cycle``, ``notify_issue``, ``notify_global_access``, ``should_bypass_l1``,
``on_warp_retired`` and ``on_no_progress``.  The optional hooks are resolved
to bound-method slots exactly once (:func:`repro.sched.base.resolve_hooks`),
so the per-cycle loop never pays for ``hasattr`` probes.

Hot-path invariants (see docs/PERFORMANCE.md)
---------------------------------------------

Per-cycle work is proportional to *what changed*, not to *what exists*: the
SM maintains an incremental ready index instead of scanning every resident
warp on every issue slot.

* ``_warps_by_wid`` maps warp id -> resident warp (warp ids are unique among
  resident warps: a slot is only reused after the CTA that owned it retired
  and its warps left ``self.warps``).
* ``_ready_list`` / ``_ready_orders`` are parallel arrays, sorted by
  admission ``order``, holding the warps whose next-ready time has arrived
  or lies within ``_LAZY_READY_WINDOW`` cycles (those are filtered with one
  integer compare at query time).  Sorting by admission order preserves the
  historical ``self.warps`` scan order exactly.
* ``_waiting`` is a heap of ``(ready_at, order, token, warp)`` for warps
  whose timers lie beyond the lazy window; stale entries self-invalidate
  against the warp's ``wait_token`` stamp, which every reindex bumps.
* Warps blocked on barriers or a full pending-load window live in neither
  structure; they re-enter through :meth:`_reindex_warp` when the blocking
  condition clears.

Every mutation of the fields the index depends on (``finished``,
``at_barrier``, ``pending_loads``, ``ready_at``) happens inside SM code
paths, each of which calls :meth:`_reindex_warp`.  Scheduler-owned flags
(``active``, ``isolated``) are deliberately *not* indexed -- schedulers and
tests flip them at will -- and are re-checked at query time, which keeps the
index correct under arbitrary throttling policies.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.gpu.cta import CTA, KernelLaunch
from repro.gpu.coalescer import Coalescer
from repro.gpu.config import GPUConfig
from repro.gpu.instruction import Instruction, InstructionKind
from repro.gpu.stats import SMStats
from repro.gpu.warp import Warp
from repro.mem.cache import AccessOutcome, Cache
from repro.mem.mshr import MSHRFile, MSHRTarget
from repro.mem.queues import DatapathMux, QueueEntry, ResponseQueue, WriteQueue
from repro.mem.shared_cache import SharedMemoryCache
from repro.mem.shared_memory import SharedMemory
from repro.mem.subsystem import MemorySubsystem
from repro.mem.victim_tag_array import VictimTagArray, VTAHit
from repro.sched.base import SchedulerHooks, resolve_hooks

# Hoisted enum members: the issue loop compares instruction kinds by
# identity, which avoids per-instruction attribute chains and enum hashing.
_K_ALU = InstructionKind.ALU
_K_LOAD = InstructionKind.LOAD
_K_STORE = InstructionKind.STORE
_K_BARRIER = InstructionKind.BARRIER
_K_EXIT = InstructionKind.EXIT

#: Warps whose ``ready_at`` lies within this many cycles of "now" stay in the
#: ready set and are filtered by a single integer compare at query time;
#: only timers beyond the window go through the waiting heap.  This keeps
#: short ALU / hit / bank-conflict latencies (all <= 32 cycles in the Table I
#: machine) from churning the heap on every issued instruction.  The value
#: is a pure performance knob — results are identical for any window.
_LAZY_READY_WINDOW = 32


@dataclass(slots=True)
class _FillEvent:
    """One pending memory fill (kept in a heap ordered by completion time)."""

    time: int
    seq: int
    block: int
    destination: str  # "l1d", "shared" or "bypass"

    def __lt__(self, other: "_FillEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class StreamingMultiprocessor:
    """One SM: warp storage, scheduler, L1D, shared memory, MSHRs, VTA."""

    #: Extra cycles charged when a block migrates from the L1D into the
    #: shared-memory cache through the response queue (Section IV-B,
    #: "Performance optimization and coherence").
    MIGRATION_LATENCY = 4

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        memory: MemorySubsystem,
        scheduler,
        *,
        enable_shared_cache: bool = False,
    ) -> None:
        config.validate()
        self.sm_id = sm_id
        self.config = config
        self.memory = memory
        self.scheduler = scheduler
        self.enable_shared_cache = enable_shared_cache

        self.l1d = Cache(config.l1d)
        self.vta = VictimTagArray(config.vta)
        self.shared_memory = SharedMemory(config.shared_memory_bytes)
        self.shared_cache: Optional[SharedMemoryCache] = None
        self.mshr = MSHRFile(config.mshr_entries, config.mshr_max_merged)
        self.coalescer = Coalescer()
        self.response_queue = ResponseQueue()
        self.write_queue = WriteQueue()
        self.datapath_mux = DatapathMux()

        self.warps: list[Warp] = []
        self.ctas: dict[int, CTA] = {}
        self.stats = SMStats(warp_size=config.warp_size)

        self.cycle = 0
        self._events: list[_FillEvent] = []
        self._event_seq = 0
        #: Bumped on every fill-event push/pop; lets the lock-step driver
        #: cache ``next_event_time()`` across cycles (cross-SM event index).
        self.events_version = 0
        self._pending_ctas: deque[int] = deque()
        self._kernel: Optional[KernelLaunch] = None
        self._next_cta_index = 0
        #: Free warp slots kept as a min-heap (lowest slot assigned first,
        #: exactly like the historical sorted-list-pop(0) behaviour).
        self._free_warp_slots: list[int] = []
        self._next_sample_at = config.timeseries_sample_instructions
        self._last_sample_cycle = 0
        self._last_sample_instructions = 0
        self._last_sample_vta_hits = 0
        self._request_seq = 0

        # -- incremental ready index (see module docstring) -----------------
        self._warps_by_wid: dict[int, Warp] = {}
        #: Parallel arrays sorted by admission order: the warps currently in
        #: the ready set and their orders (for bisect positioning).  Kept
        #: incrementally so the issuable list never re-sorts per issue slot.
        self._ready_orders: list[int] = []
        self._ready_list: list[Warp] = []
        self._waiting: list[tuple[int, int, int, Warp]] = []
        self._order_seq = 0
        self._unfinished_warps = 0
        self._live_ctas = 0
        self._issue_width = config.issue_width

        # -- scheduler capability slots (resolved once, not per cycle) ------
        self._hooks: SchedulerHooks = resolve_hooks(scheduler)
        self._select = scheduler.select
        self._record_issue = self.stats.record_issue

    # ------------------------------------------------------------------
    # Kernel launch and CTA management
    # ------------------------------------------------------------------
    def launch(self, kernel: KernelLaunch) -> None:
        """Prepare the SM to run ``kernel`` (resident CTAs are created lazily)."""
        kernel.validate()
        self._kernel = kernel
        self._pending_ctas = deque(range(kernel.num_ctas))
        self._next_cta_index = 0
        self._free_warp_slots = list(range(self.config.max_warps_per_sm))  # sorted == valid heap
        self._warps_by_wid.clear()
        self._ready_orders.clear()
        self._ready_list.clear()
        self._waiting.clear()
        self._unfinished_warps = 0
        self._live_ctas = 0
        self._fill_resident_ctas()
        if self.enable_shared_cache:
            self.shared_cache = SharedMemoryCache(self.shared_memory)
        if hasattr(self.scheduler, "attach"):
            self.scheduler.attach(self)
        # Re-resolve after attach in case attach() installed instance hooks.
        self._hooks = resolve_hooks(self.scheduler)
        self._select = self.scheduler.select
        self._record_issue = self.stats.record_issue

    def _can_admit_cta(self) -> bool:
        assert self._kernel is not None
        kernel = self._kernel
        if self._live_ctas >= self.config.max_ctas_per_sm:
            return False
        if len(self._free_warp_slots) < kernel.warps_per_cta:
            return False
        if self._unfinished_warps + kernel.warps_per_cta > self.config.max_warps_per_sm:
            return False
        if kernel.shared_mem_per_cta > self.shared_memory.smmt.unused_bytes():
            return False
        if kernel.max_resident_warps is not None:
            if self._unfinished_warps + kernel.warps_per_cta > kernel.max_resident_warps:
                return False
        return True

    def _fill_resident_ctas(self) -> None:
        assert self._kernel is not None
        kernel = self._kernel
        while self._pending_ctas and self._can_admit_cta():
            cta_index = self._pending_ctas.popleft()
            cta = CTA(cta_id=cta_index)
            if kernel.shared_mem_per_cta > 0:
                self.shared_memory.smmt.allocate(f"cta:{cta_index}", kernel.shared_mem_per_cta)
            for warp_index in range(kernel.warps_per_cta):
                slot = heapq.heappop(self._free_warp_slots)
                stream = kernel.stream_factory(cta_index, warp_index, slot)
                self._order_seq += 1
                warp = Warp(
                    wid=slot,
                    cta_id=cta_index,
                    instructions=stream,
                    assigned_at=self.cycle,
                    max_pending_loads=self.config.max_outstanding_loads_per_warp,
                    order=self._order_seq,
                )
                cta.add_warp(warp)
                self.warps.append(warp)
                self._warps_by_wid[slot] = warp
                self._unfinished_warps += 1
                self._reindex_warp(warp)
            self.ctas[cta_index] = cta
            self._live_ctas += 1

    def _retire_cta_if_done(self, cta_id: int) -> None:
        cta = self.ctas.get(cta_id)
        if cta is None or not cta.is_finished():
            return
        self.shared_memory.smmt.free(f"cta:{cta_id}")
        for warp in cta.warps:
            heapq.heappush(self._free_warp_slots, warp.wid)
            self._warps_by_wid.pop(warp.wid, None)
            self._ready_discard(warp)
            warp.wait_token += 1  # invalidate any stale timer-heap entry
        self.warps = [w for w in self.warps if w.cta_id != cta_id or not w.finished]
        del self.ctas[cta_id]
        self._live_ctas -= 1
        self._fill_resident_ctas()

    # ------------------------------------------------------------------
    # Incremental ready index
    # ------------------------------------------------------------------
    def _ready_add(self, warp: Warp) -> None:
        if warp.in_ready:
            return
        index = bisect_left(self._ready_orders, warp.order)
        self._ready_orders.insert(index, warp.order)
        self._ready_list.insert(index, warp)
        warp.in_ready = True

    def _ready_discard(self, warp: Warp) -> None:
        if not warp.in_ready:
            return
        index = bisect_left(self._ready_orders, warp.order)
        del self._ready_orders[index]
        del self._ready_list[index]
        warp.in_ready = False

    def _reindex_warp(self, warp: Warp) -> None:
        """Re-file ``warp`` after any change to its SM-owned blocking state.

        Must be called whenever ``finished`` / ``at_barrier`` /
        ``pending_loads`` / ``ready_at`` may have changed.  ``active`` and
        ``isolated`` are scheduler-owned and checked at query time instead.
        """
        warp.wait_token += 1  # invalidate any outstanding timer-heap entry
        limit = warp.max_pending_loads
        if limit < 1:
            limit = 1
        if warp.finished or warp.at_barrier or warp.pending_loads >= limit:
            self._ready_discard(warp)
        elif warp.ready_at <= self.cycle + _LAZY_READY_WINDOW:
            # Near-future timers stay in the ready set; the query filters
            # them with one integer compare instead of heap churn.
            self._ready_add(warp)
        else:
            self._ready_discard(warp)
            heapq.heappush(self._waiting, (warp.ready_at, warp.order, warp.wait_token, warp))

    def _refresh_ready(self, now: int) -> None:
        """Promote warps whose ``ready_at`` timer has expired by ``now``."""
        waiting = self._waiting
        pop = heapq.heappop
        while waiting and waiting[0][0] <= now:
            _, _, token, warp = pop(waiting)
            if warp.wait_token == token:  # else: superseded by a reindex
                self._ready_add(warp)

    def _inactive_may_issue(self, warp: Warp) -> bool:
        """Memory-only throttling semantics for a ready-but-throttled warp.

        A throttled warp (V bit cleared by a scheduler) may not issue global
        memory instructions, but keeps executing ALU / scratchpad / barrier
        instructions.  As an additional safeguard, if its CTA is already
        blocked at a barrier the throttle is ignored entirely, so throttling
        can never deadlock a CTA.
        """
        instruction = warp._peeked
        if instruction is None:
            instruction = warp.peek()
        kind = instruction.kind
        if kind is not _K_LOAD and kind is not _K_STORE:
            return True
        cta = self.ctas.get(warp.cta_id)
        if cta is None:
            return True
        return cta.num_at_barrier > 0

    def _issuable_warps(self, now: int) -> list[Warp]:
        waiting = self._waiting
        if waiting and waiting[0][0] <= now:
            self._refresh_ready(now)
        ready = self._ready_list
        if not ready:
            return []
        inactive_may_issue = self._inactive_may_issue
        return [
            warp
            for warp in ready
            if warp.ready_at <= now and (warp.active or inactive_may_issue(warp))
        ]

    def _any_issuable(self, now: int) -> bool:
        waiting = self._waiting
        if waiting and waiting[0][0] <= now:
            self._refresh_ready(now)
        for warp in self._ready_list:
            if warp.ready_at <= now and (warp.active or self._inactive_may_issue(warp)):
                return True
        return False

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> SMStats:
        """Run the kernel to completion (or the cycle budget) and return stats.

        This is the serialized per-SM loop; :mod:`repro.gpu.lockstep` drives
        several SMs against the shared memory subsystem with the same
        stepping primitives (:meth:`step_cycle`, :meth:`next_event_time`,
        :meth:`record_stall`, :meth:`handle_no_progress`, :meth:`finalize`),
        so the two execution modes cannot drift apart semantically.
        """
        if self._kernel is None:
            raise RuntimeError("launch() must be called before run()")
        budget = max_cycles if max_cycles is not None else self.config.max_cycles
        now = self.cycle
        while self.has_work() and now < budget:
            issued = self.step_cycle(now)
            if issued:
                now += 1
                continue
            # Nothing issued: fast-forward to the next interesting time.
            next_event = self.next_event_time()
            if next_event is not None and next_event > now:
                self.record_stall(next_event - now)
                now = next_event
            elif next_event is None and not self.can_issue(now):
                # No events in flight and nobody can issue: either every
                # remaining warp is throttled (scheduler livelock guard) or
                # we wait one cycle for ready_at timers.
                self.handle_no_progress()
                self.record_stall(1)
                now += 1
            else:
                self.record_stall(1)
                now += 1
        return self.finalize(now)

    # -- stepping primitives (shared with the lock-step driver) --------
    def has_work(self) -> bool:
        """Whether any resident or pending CTA still has instructions left."""
        return self._unfinished_warps > 0 or bool(self._pending_ctas)

    def step_cycle(self, now: int) -> bool:
        """Run one cycle at global time ``now``; returns True if a warp issued.

        Drains due memory-fill events, lets the scheduler issue up to
        ``issue_width`` instructions and samples the time series.
        """
        if self._kernel is None:
            raise RuntimeError("launch() must be called before step_cycle()")
        self.cycle = now
        events = self._events
        if events and events[0].time <= now:
            self._drain_events(now)
        issued = self._issue_cycle(now)
        if self.stats.instructions_issued >= self._next_sample_at:
            self._maybe_sample()
        return issued

    def next_event_time(self) -> Optional[int]:
        """Completion time of the earliest in-flight memory fill, if any."""
        return self._events[0].time if self._events else None

    def can_issue(self, now: int) -> bool:
        """Whether any warp could issue at ``now`` (ignoring issue width)."""
        return self._any_issuable(now)

    def record_stall(self, cycles: int = 1) -> None:
        """Account ``cycles`` of lost issue slots (no issuable warp)."""
        self.stats.stalls.no_issuable_warp += cycles

    def handle_no_progress(self) -> None:
        """Break scheduler-induced livelock (everything throttled, no events)."""
        self._resolve_no_progress()

    def finalize(self, now: int) -> SMStats:
        """Drain outstanding events at ``now`` and seal the statistics."""
        self.cycle = now
        self._drain_events(now)
        self._finalize_stats()
        return self.stats

    def _resolve_no_progress(self) -> None:
        """Break scheduler-induced livelock (everything throttled, no events)."""
        on_no_progress = self._hooks.on_no_progress
        if on_no_progress is not None and on_no_progress(self.cycle):
            return
        for warp in self.warps:
            if not warp.finished and not warp.active and warp.pending_loads == 0 and not warp.at_barrier:
                warp.active = True
                self.stats.reactivate_events += 1
                return

    # ------------------------------------------------------------------
    # Issue stage
    # ------------------------------------------------------------------
    def _issue_cycle(self, now: int) -> bool:
        hooks = self._hooks
        if hooks.on_cycle is not None:
            hooks.on_cycle(now)
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
                # Structural hazard: replay the same instruction later.
                break
            warp._peeked = None  # consume (inlined Warp.advance)
            warp.note_issue(instruction, now)
            record_issue(warp.wid)
            self._reindex_warp(warp)
            if notify_issue is not None:
                notify_issue(warp, instruction, now)
            issued_any = True
        return issued_any

    def _execute(self, warp: Warp, instruction: Instruction, now: int) -> bool:
        kind = instruction.kind
        if kind is _K_ALU:
            latency = instruction.latency
            warp.ready_at = now + (latency if latency > 1 else 1)
            return True
        if kind is _K_LOAD or kind is _K_STORE:
            return self._execute_global(warp, instruction, now)
        if kind is _K_EXIT:
            self._retire_warp(warp, now)
            return True
        if kind is _K_BARRIER:
            cta = self.ctas[warp.cta_id]
            released = cta.arrive_at_barrier(warp)
            self.stats.barriers_executed += 1
            for released_warp in released:
                if released_warp is not warp:  # issuer reindexed by _issue_cycle
                    self._reindex_warp(released_warp)
            return True
        # SHARED_LOAD / SHARED_STORE.
        return self._execute_scratchpad(warp, instruction, now)

    def _retire_warp(self, warp: Warp, now: int) -> None:
        warp.retire()
        self._unfinished_warps -= 1
        self._reindex_warp(warp)
        self.stats.warps_retired += 1
        cta = self.ctas.get(warp.cta_id)
        if cta is not None:
            for released_warp in cta.release_if_unblocked():
                self._reindex_warp(released_warp)
        on_warp_retired = self._hooks.on_warp_retired
        if on_warp_retired is not None:
            on_warp_retired(warp, now)
        self._retire_cta_if_done(warp.cta_id)

    def _execute_scratchpad(self, warp: Warp, instruction: Instruction, now: int) -> bool:
        cta_entry = self.shared_memory.smmt.find(f"cta:{warp.cta_id}")
        base = cta_entry.base if cta_entry is not None else 0
        limit = cta_entry.size if cta_entry is not None else self.shared_memory.capacity_bytes
        offsets = [base + (offset % max(1, limit)) for offset in instruction.addresses]
        cycles = self.shared_memory.access(offsets)
        warp.ready_at = now + max(1, cycles)
        self.stats.shared_memory_instructions += 1
        return True

    # ------------------------------------------------------------------
    # Global memory path
    # ------------------------------------------------------------------
    def _execute_global(self, warp: Warp, instruction: Instruction, now: int) -> bool:
        blocks = self.coalescer.coalesce(instruction.addresses)
        is_write = instruction.kind is InstructionKind.STORE
        use_shared = (
            warp.isolated and self.shared_cache is not None and self.shared_cache.num_lines > 0
        )
        bypass = False
        should_bypass_l1 = self._hooks.should_bypass_l1
        if not use_shared and should_bypass_l1 is not None:
            bypass = bool(should_bypass_l1(warp, now))
        if not is_write and not self._memory_resources_available(blocks, use_shared, bypass):
            self.stats.stalls.mshr_full += 1
            return False
        self.stats.global_memory_instructions += 1
        latency_floor = now + 1
        for block in blocks:
            if is_write:
                self._issue_store(warp, block, now, use_shared)
            else:
                ready = self._issue_load(warp, block, now, use_shared, bypass)
                if ready is not None and ready > latency_floor:
                    latency_floor = ready
        if not is_write:
            # Hits resolve after the hit latency; misses block via pending_loads.
            warp.ready_at = latency_floor
        else:
            warp.ready_at = now + 1
        return True

    def _memory_resources_available(self, blocks: list[int], use_shared: bool, bypass: bool) -> bool:
        """Conservatively check MSHR / tag-array capacity before issuing."""
        free_needed = 0
        mshr = self.mshr
        l1d = self.l1d
        line_size = l1d.config.line_size
        for block in blocks:
            entry = mshr.lookup(block)
            if entry is not None:
                if entry.num_targets >= mshr.max_merged:
                    return False
                continue
            byte_address = block * line_size
            if not use_shared and not bypass:
                tag, set_index, _ = l1d.mapping.decompose(byte_address)
                line = l1d.tags.probe(set_index, tag)
                if line is not None:
                    continue  # hit or hit-reserved without a new MSHR entry
                if l1d.tags.find_victim(set_index) is None:
                    self.stats.stalls.reservation_fail += 1
                    return False
            elif use_shared and self.shared_cache is not None and self.shared_cache.contains(byte_address):
                continue
            free_needed += 1
        return mshr.occupancy + free_needed <= mshr.num_entries

    # -- loads ----------------------------------------------------------------
    def _issue_load(
        self, warp: Warp, block: int, now: int, use_shared: bool, bypass: bool
    ) -> Optional[int]:
        """Issue one load transaction; returns data-ready time for hits."""
        byte_address = block * self.l1d.config.line_size
        if use_shared:
            return self._load_via_shared_cache(warp, block, byte_address, now)
        if bypass:
            self._load_bypass(warp, block, now)
            return None
        return self._load_via_l1d(warp, block, byte_address, now)

    def _load_via_l1d(self, warp: Warp, block: int, byte_address: int, now: int) -> Optional[int]:
        result = self.l1d.access(byte_address, warp.wid, is_write=False, now=now)
        vta_hit: Optional[VTAHit] = None
        if result.outcome is AccessOutcome.HIT:
            self._notify_access(warp, hit=True, vta_hit=None, destination="l1d", now=now)
            return now + self.l1d.hit_latency
        if result.outcome is AccessOutcome.HIT_RESERVED:
            self._merge_or_allocate(warp, block, now, destination="l1d", send=False)
            self._notify_access(warp, hit=False, vta_hit=None, destination="l1d", now=now)
            return None
        # Genuine miss: record the eviction in the VTA, then probe the VTA for
        # lost locality of the missing warp.
        if result.eviction is not None:
            self.vta.record_eviction(result.eviction.owner_wid, result.eviction.tag, warp.wid)
        vta_hit = self.vta.probe(warp.wid, block)
        if vta_hit is not None:
            self.stats.record_vta_hit(vta_hit.wid, vta_hit.evictor_wid)
        self._merge_or_allocate(warp, block, now, destination="l1d", send=True)
        self._notify_access(warp, hit=False, vta_hit=vta_hit, destination="l1d", now=now)
        return None

    def _load_via_shared_cache(self, warp: Warp, block: int, byte_address: int, now: int) -> Optional[int]:
        assert self.shared_cache is not None
        self.stats.redirected_accesses += 1
        self.datapath_mux.route(DatapathMux.SHARED)
        access = self.shared_cache.access(byte_address, warp.wid, is_write=False, now=now)
        if access.hit and not access.reserved_pending:
            self._notify_access(warp, hit=True, vta_hit=None, destination="shared", now=now)
            return now + self.shared_cache.hit_latency
        if access.hit and access.reserved_pending:
            self._merge_or_allocate(warp, block, now, destination="shared", send=False)
            self._notify_access(warp, hit=False, vta_hit=None, destination="shared", now=now)
            return None
        # Miss in the shared cache.
        if access.evicted_block is not None:
            self.vta.record_eviction(access.evicted_owner, access.evicted_block, warp.wid)
        vta_hit = self.vta.probe(warp.wid, block)
        if vta_hit is not None:
            self.stats.record_vta_hit(vta_hit.wid, vta_hit.evictor_wid)
        # Coherence / migration: if the block still lives in the L1D it is
        # evicted into the response queue and pulled into shared memory,
        # hiding the cold miss (Section IV-B).
        if self.l1d.contains(byte_address):
            self.l1d.invalidate(byte_address)
            self.stats.migrations_l1_to_shared += 1
            self._schedule_fill(block, now + self.MIGRATION_LATENCY, destination="shared")
            target = MSHRTarget(wid=warp.wid, request_id=self._next_request_id())
            entry, _ = self.mshr.allocate(block, target, now, destination="shared")
            if entry is not None:
                warp.pending_loads += 1
            self._notify_access(warp, hit=False, vta_hit=vta_hit, destination="shared", now=now)
            return None
        self._merge_or_allocate(warp, block, now, destination="shared", send=True)
        self._notify_access(warp, hit=False, vta_hit=vta_hit, destination="shared", now=now)
        return None

    def _load_bypass(self, warp: Warp, block: int, now: int) -> None:
        """statPCAL-style L1D bypass: fetch straight from L2/DRAM."""
        self.stats.bypassed_accesses += 1
        self._merge_or_allocate(warp, block, now, destination="bypass", send=True)
        self._notify_access(warp, hit=False, vta_hit=None, destination="bypass", now=now)

    def _merge_or_allocate(
        self, warp: Warp, block: int, now: int, *, destination: str, send: bool
    ) -> None:
        target = MSHRTarget(wid=warp.wid, request_id=self._next_request_id())
        entry, is_new = self.mshr.allocate(block, target, now, destination=destination)
        if entry is None:
            # Pre-check should prevent this; treat as an extra-latency retry.
            self.stats.stalls.mshr_full += 1
            return
        warp.pending_loads += 1
        if is_new:
            if not send:
                # Defensive: a reserved line without an outstanding MSHR entry
                # should not happen, but if it does, request the fill anyway so
                # the warp cannot wait forever.
                send = True
            completion = self.memory.read_block(self.sm_id, block, warp.wid, now)
            self._schedule_fill(block, completion, destination=destination)

    # -- stores ---------------------------------------------------------------
    def _issue_store(self, warp: Warp, block: int, now: int, use_shared: bool) -> None:
        byte_address = block * self.l1d.config.line_size
        if use_shared and self.shared_cache is not None:
            self.stats.redirected_accesses += 1
            self.datapath_mux.route(DatapathMux.SHARED)
            self.shared_cache.access(byte_address, warp.wid, is_write=True, now=now)
            self.shared_cache.fill(block, now)
        else:
            self.datapath_mux.route(DatapathMux.L1D)
            self.l1d.access(byte_address, warp.wid, is_write=True, now=now)
        # Global stores are write-through: post to the write queue and L2.
        self.write_queue.push(QueueEntry(block=block, wid=warp.wid, ready_at=now, destination="l2"))
        self.write_queue.pop_ready(now)
        self.memory.write_block(self.sm_id, block, warp.wid, now)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _next_request_id(self) -> int:
        self._request_seq += 1
        return self._request_seq

    def _schedule_fill(self, block: int, time: int, *, destination: str) -> None:
        self._event_seq += 1
        self.events_version += 1
        heapq.heappush(
            self._events,
            _FillEvent(time=int(time), seq=self._event_seq, block=block, destination=destination),
        )

    def _drain_events(self, now: int) -> None:
        events = self._events
        while events and events[0].time <= now:
            self.events_version += 1
            event = heapq.heappop(events)
            self._complete_fill(event, now)

    def _complete_fill(self, event: _FillEvent, now: int) -> None:
        if event.destination == "l1d":
            self.l1d.fill(event.block, now)
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

    def _warp_by_id(self, wid: int) -> Optional[Warp]:
        """Resident warp with id ``wid`` (single dict lookup).

        Warp ids are unique among resident warps (a freed slot is only
        reassigned after the retiring CTA's warps left ``self.warps``), so a
        fill targeting a retired-and-reused slot resolves to the live warp.
        """
        return self._warps_by_wid.get(wid)

    def _notify_access(self, warp: Warp, *, hit: bool, vta_hit: Optional[VTAHit], destination: str, now: int) -> None:
        notify = self._hooks.notify_global_access
        if notify is not None:
            notify(warp, hit, vta_hit, destination, now)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def active_warp_count(self) -> int:
        """Warps currently allowed to be scheduled (V=1 and not finished)."""
        return sum(1 for w in self.warps if not w.finished and w.active)

    def total_instructions(self) -> int:
        """Warp instructions issued so far (used for IRS epochs)."""
        return self.stats.instructions_issued

    def _maybe_sample(self) -> None:
        if self.stats.instructions_issued < self._next_sample_at:
            return
        instr = self.stats.instructions_issued
        cycle_delta = max(1, self.cycle - self._last_sample_cycle)
        instr_delta = instr - self._last_sample_instructions
        vta_delta = self.stats.vta_hits - self._last_sample_vta_hits
        ipc = instr_delta * self.config.warp_size / cycle_delta
        self.stats.ipc_series.append(instr, ipc)
        self.stats.active_warp_series.append(instr, float(self.active_warp_count()))
        self.stats.interference_series.append(instr, float(vta_delta))
        self._last_sample_cycle = self.cycle
        self._last_sample_instructions = instr
        self._last_sample_vta_hits = self.stats.vta_hits
        self._next_sample_at += self.config.timeseries_sample_instructions

    def _finalize_stats(self) -> None:
        self.stats.cycles = max(self.cycle, 1)
        self.stats.l1d_hits = self.l1d.stats.hits
        self.stats.l1d_misses = self.l1d.stats.misses
        self.stats.l1d_hit_rate = self.l1d.stats.hit_rate
        if self.shared_cache is not None:
            self.stats.shared_cache_hit_rate = self.shared_cache.stats.hit_rate
            self.stats.shared_cache_accesses = self.shared_cache.stats.accesses
        self.stats.shared_memory_utilization = self.shared_memory.utilization()
        self.stats.l2_hit_rate = self.memory.l2_hit_rate
        self.stats.dram_requests = self.memory.l2.dram.stats.requests
    # NOTE: the historical per-issue-slot full scans (`_issuable_warps` over
    # every resident warp, `_warp_by_id` linear search, O(n) slot pops) were
    # replaced by the incremental structures above; tests/goldens pins the
    # refactor to bit-identical simulation output.
