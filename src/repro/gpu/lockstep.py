"""Lock-step multi-SM execution: all SMs advance against one global clock.

The reference execution mode (:meth:`repro.gpu.gpu.GPU.run`) simulates SMs
one after another, so two SMs never contend for a DRAM channel *in the same
cycle* — inter-SM contention only appears indirectly through leftover
channel-busy state.  :func:`run_lockstep` instead advances every SM
cycle-by-cycle against the shared :class:`~repro.mem.subsystem.MemorySubsystem`:
within a cycle, SMs issue in ``sm_id`` order (deterministic), and their
memory transactions interleave in true time order, so simultaneous bursts
genuinely queue behind each other (counted by
``SimulationResult.inter_sm_dram_conflicts``).

The driver is built from the same per-cycle stepping primitives the
serialized loop uses (``StreamingMultiprocessor.step_cycle`` /
``next_event_time`` / ``record_stall`` / ``handle_no_progress`` /
``finalize``), and its control flow reduces *exactly* to the serialized loop
when one SM is simulated: single-SM results are bit-for-bit identical
between the two backends, which the test suite pins down
(``tests/test_lockstep.py``).

The drivers take whatever SMs the machine builds.  The ``lockstep``
backend passes a :class:`~repro.gpu.vector.engine.VectorGPU`, whose SMs
replay extracted traces over the pre-coalesced memory path; a plain
:class:`~repro.gpu.gpu.GPU` runs reference SMs through the same loop and
is the oracle the tests and the golden fixtures are computed on.

:func:`run_multi_tenant` drives the same loop over a *partitioned* machine
(:meth:`repro.gpu.gpu.GPU.build_partitioned_sms`): each tenant's kernel runs
on its own SM subset while every SM contends for the shared L2/DRAM.
Tenants finalize independently — a finished tenant's SMs go idle (and are
sealed at the global cycle they were observed drained) while the remaining
tenants keep contending — and the result carries a per-tenant statistics
breakdown (``SimulationResult.per_tenant``), including each tenant's share
of the inter-SM DRAM conflicts.  Because both drivers share
:func:`_advance_sms` and SM construction order, a partition in which every
tenant runs the same kernel and scheduler is bit-identical to the
single-kernel lock-step path.

The global fast-forward keeps pure-Python simulation practical: when no SM
can issue, the clock jumps straight to the earliest in-flight memory event
across all SMs.

Skipping steps whose outcome is known
-------------------------------------

Stepping every live SM every cycle repeats work whose result is already
known: an SM whose greedy warp is refused for want of an MSHR retries the
same access each cycle while another SM issues.  Two mechanisms skip such
SM-cycles, and both keep every SM's L2/DRAM accesses in the
(cycle, ``sm_id``) order of the per-cycle loop, so results are bit-identical:

* **Sleep.**  An SM that issued nothing at a lock-step cycle ``c`` sleeps
  when its scheduler declares ``vector_sticky_select``, its ``on_cycle`` (if
  any) declares ``on_cycle_due``, it has no ``should_bypass_l1`` hook and it
  has fills in flight (:meth:`~repro.gpu.vector.engine.VectorSM.sleep_bound`).
  Its bound is the earliest of its next fill, ``on_cycle_due()`` and the
  next ``ready_at`` timer of its ready index and waiting heap.  Before the
  bound nothing the SM reads changes: no fill drains, ``on_cycle`` is a
  no-op, no warp becomes ready, and other SMs touch only the L2/DRAM, which
  a refused access never reaches (the MSHR and L1D check comes first).
  ``select`` runs over the same issuable list, and the sticky contract
  makes it return the same warp without changing the scheduler.  So every
  skipped step repeats the refused access's stall counters (or again finds
  nothing issuable) and touches no shared state.  The SM wakes at the
  first lock-step cycle ``w`` at or after the bound (the global
  fast-forward may pass a timer bound, just as it would with the SM awake)
  and is credited ``w - c`` stall cycles plus those stall counters once
  per skipped iteration
  (:meth:`~repro.gpu.vector.engine.VectorSM.wake`).  A sleeper's
  next fill still counts in the fast-forward target, and since a sleeper
  always has one, the livelock branch never runs while anyone sleeps.
* **Solo.**  When exactly one SM is awake and no launch is pending, that SM
  runs the vector engine's batched loop
  (:meth:`~repro.gpu.vector.engine.VectorSM.run_batched`: greedy stretches
  and stall jumps) up to the sleepers' earliest bound, the first cycle
  another SM may act.  A stretch stops at that horizon; a stall jumps to the
  earlier of its own next fill and the sleepers' earliest fill, which is
  exactly the target the per-cycle loop would pick, so no jump passes a
  sleeper's fill.  The loop counts the lock-step iterations it covers so
  that the sleepers can repeat them.  A lone live SM (an isolated tenant,
  the tail of a co-located run) is the case with no sleepers;
  :meth:`~repro.gpu.vector.engine.VectorSM.run` is the same loop with no
  horizon.

Reference SMs offer neither capability and take the per-cycle branch of
this same driver, which is what makes them the oracle.

Driver-side cost is kept proportional to *change*, not to SM count times
cycle count: ``has_work()`` and ``can_issue()`` are O(1)/indexed on the SM
side (the SM's incremental ready index), and the driver keeps a cross-SM
*event index* — each SM's ``next_event_time()`` is cached against its
``events_version`` stamp, so SMs that are provably waiting (no fill-event
churn) are not re-queried on every fast-forward decision.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Sequence

from repro.gpu.cta import KernelLaunch
from repro.gpu.gpu import GPU, SimulationResult, TenantPlan
from repro.gpu.stats import SMStats, TenantStats, merge_stats


def _advance_sms(
    sms: Sequence, budget: int, *, launch_cycles: Optional[dict[int, int]] = None
) -> dict[int, SMStats]:
    """Advance ``sms`` in lock step until all drain or ``budget`` is reached.

    Returns the per-SM statistics keyed by ``sm_id``.  Each SM is finalized
    at the global cycle it was observed drained (or at the final cycle for
    SMs still live when the budget ran out), so heterogeneous kernels —
    tenants of different lengths — seal their stats independently.

    ``launch_cycles`` (``sm_id -> arrival cycle``) staggers kernel launches:
    an SM with a positive arrival sits *dormant* — not stepped, accruing no
    stall accounting — until the global clock reaches its launch cycle, then
    joins the live set in ``sm_id`` order.  Arrivals participate in the
    fast-forward decision (the clock never jumps past a pending launch), and
    an all-zero map takes exactly the simultaneous-launch code path, so
    offset-free staggered requests stay bit-identical to the original loop.

    SMs offering ``sleep_bound`` / ``wake`` sleep through the lock-step
    cycles whose outcome is known, and one offering ``run_batched`` runs
    alone while it is the only SM awake (see the module docstring).
    """
    cycle = 0
    if launch_cycles and any(launch_cycles.values()):
        live = [sm for sm in sms if not launch_cycles.get(sm.sm_id, 0)]
        pending = sorted(
            (sm for sm in sms if launch_cycles.get(sm.sm_id, 0)),
            key=lambda sm: (launch_cycles[sm.sm_id], sm.sm_id),
        )
    else:
        live = list(sms)
        pending = []
    finalized: set[int] = set()
    per_sm_stats: dict[int, SMStats] = {}
    sleep_bounds = {sm.sm_id: sm.sleep_bound for sm in sms if hasattr(sm, "sleep_bound")}

    # Cross-SM event index: next_event_time() per SM, cached against the
    # SM's events_version stamp so waiting SMs are not re-scanned.
    event_cache: dict[int, tuple[int, Optional[int]]] = {}

    def next_event(sm) -> Optional[int]:
        version = sm.events_version
        cached = event_cache.get(sm.sm_id)
        if cached is not None and cached[0] == version:
            return cached[1]
        value = sm.next_event_time()
        event_cache[sm.sm_id] = (version, value)
        return value

    by_id = attrgetter("sm_id")
    # sm_id -> (wake bound, SM, sleep cycle, sleep iteration, next fill).
    asleep: dict[int, tuple] = {}
    wake_at = budget  # earliest bound among the sleepers
    iteration = 0  # lock-step iterations completed

    while (live or asleep or pending) and cycle < budget:
        if pending and launch_cycles[pending[0].sm_id] <= cycle:
            # Admit every tenant whose launch cycle has arrived; the live
            # set keeps its sm_id issue order.
            while pending and launch_cycles[pending[0].sm_id] <= cycle:
                live.append(pending.pop(0))
            live.sort(key=by_id)
        if asleep and wake_at <= cycle:
            # Wake every sleeper whose bound has arrived: it stalled since it
            # fell asleep and repeated its step once per skipped iteration.
            for sm_id, (bound, sm, since, since_iteration, _) in list(asleep.items()):
                if bound <= cycle:
                    del asleep[sm_id]
                    sm.wake(cycle - since, iteration - since_iteration)
                    live.append(sm)
            live.sort(key=by_id)
            wake_at = min((entry[0] for entry in asleep.values()), default=budget)
        if not live and not asleep:
            # Nothing resident yet: jump straight to the next arrival —
            # dormant tenants accrue no stall accounting.
            cycle = min(launch_cycles[pending[0].sm_id], budget)
            continue
        if len(live) == 1 and not pending:
            solo = live[0]
            run_batched = getattr(solo, "run_batched", None)
            if run_batched is not None and solo.has_work():
                # The only SM awake runs the batched loop up to the first
                # cycle a sleeper may act, never past the sleepers' first fill.
                fill_cap = min((entry[4] for entry in asleep.values()), default=None)
                cycle, iterations = run_batched(cycle, min(wake_at, budget), fill_cap)
                iteration += iterations
                continue
        iteration += 1
        stepped: list[tuple] = []
        issued_any = False
        for sm in live:
            if not sm.has_work():
                # This SM drained between cycles: seal its stats at the
                # global time it was observed idle.
                per_sm_stats[sm.sm_id] = sm.finalize(cycle)
                finalized.add(sm.sm_id)
                continue
            issued = sm.step_cycle(cycle)
            issued_any = issued_any or issued
            stepped.append((sm, issued))
        live = []
        idle = []
        for sm, issued in stepped:
            if not issued:
                sleep_bound = sleep_bounds.get(sm.sm_id)
                bound = sleep_bound(cycle) if sleep_bound is not None else None
                if bound is not None:
                    asleep[sm.sm_id] = (bound, sm, cycle, iteration, sm.next_event_time())
                    if bound < wake_at:
                        wake_at = bound
                    continue
                idle.append(sm)
            live.append(sm)
        if not live and not asleep:
            continue

        if issued_any:
            # At least one SM made progress: SMs that could not issue this
            # cycle lost an issue slot, exactly as in the serialized loop.
            for sm in idle:
                sm.record_stall(1)
            cycle += 1
            continue

        # Nobody issued anywhere: fast-forward the global clock to the
        # earliest in-flight memory event across all SMs, sleepers included
        # — or the next staggered kernel arrival, whichever comes first.
        event_times = [t for sm in live if (t := next_event(sm)) is not None]
        event_times.extend(entry[4] for entry in asleep.values())
        if pending:
            event_times.append(launch_cycles[pending[0].sm_id])
        if event_times:
            target = min(event_times)
            if target > cycle:
                for sm in live:
                    sm.record_stall(target - cycle)
                cycle = target
            else:  # pragma: no cover - events <= cycle are drained in step_cycle
                for sm in live:
                    sm.record_stall(1)
                cycle += 1
        elif not any(sm.can_issue(cycle) for sm in live):
            # No events in flight and nobody can issue: every remaining warp
            # is throttled (scheduler livelock guard) or waiting on ready_at
            # timers; let each SM's scheduler resolve it, then tick once.
            for sm in live:
                sm.handle_no_progress()
                sm.record_stall(1)
            cycle += 1
        else:
            for sm in live:
                sm.record_stall(1)
            cycle += 1

    for _bound, sm, since, since_iteration, _ in asleep.values():
        sm.wake(cycle - since, iteration - since_iteration)
    for sm in sms:
        if sm.sm_id not in finalized:
            per_sm_stats[sm.sm_id] = sm.finalize(cycle)

    return per_sm_stats


def run_lockstep(
    gpu: GPU,
    kernel: KernelLaunch,
    *,
    max_cycles: Optional[int] = None,
    scheduler_name: str = "",
) -> SimulationResult:
    """Run ``kernel`` on every SM of ``gpu`` in lock step; aggregate stats.

    ``max_cycles`` bounds the *global* clock (for a single SM this is the
    same budget the serialized mode applies per SM).
    """
    sms = gpu.build_sms(kernel)
    budget = max_cycles if max_cycles is not None else gpu.config.max_cycles
    per_sm_stats = _advance_sms(sms, budget)
    stats_in_order = [per_sm_stats[sm.sm_id] for sm in sms]
    return gpu.collect_result(
        kernel, stats_in_order, scheduler_name=scheduler_name, backend="lockstep"
    )


def run_multi_tenant(
    gpu: GPU,
    plans: Sequence[TenantPlan],
    *,
    max_cycles: Optional[int] = None,
) -> SimulationResult:
    """Run one kernel per tenant on a partitioned ``gpu`` in lock step.

    ``plans`` assign each tenant a kernel, a scheduler factory, an SM
    partition (see :meth:`repro.gpu.gpu.GPU.build_partitioned_sms` for the
    partition contract) and a launch cycle — tenants with a positive
    ``launch_cycle`` arrive mid-run, their SMs dormant until the global
    clock reaches the arrival.  All SMs share the global clock and the
    L2/DRAM; per-tenant statistics (including the tenant's share of the
    inter-SM DRAM conflicts and its launch cycle) are attached as
    ``SimulationResult.per_tenant``.
    """
    sms = gpu.build_partitioned_sms(list(plans))
    budget = max_cycles if max_cycles is not None else gpu.config.max_cycles
    launch_cycles = {
        sm_id: plan.launch_cycle for plan in plans for sm_id in plan.sm_ids
    }
    per_sm_stats = _advance_sms(sms, budget, launch_cycles=launch_cycles)
    stats_in_order = [per_sm_stats[sm.sm_id] for sm in sms]

    conflicts_by_sm = gpu.memory.inter_sm_dram_conflicts_by_sm
    per_tenant: dict[str, TenantStats] = {}
    for plan in plans:
        tenant_stats = merge_stats([per_sm_stats[sm_id] for sm_id in plan.sm_ids])
        per_tenant[plan.name] = TenantStats(
            name=plan.name,
            benchmark=plan.kernel.name,
            scheduler=plan.scheduler_name,
            sm_ids=tuple(plan.sm_ids),
            stats=tenant_stats,
            finish_cycle=tenant_stats.cycles,
            launch_cycle=plan.launch_cycle,
            inter_sm_dram_conflicts=sum(
                conflicts_by_sm.get(sm_id, 0) for sm_id in plan.sm_ids
            ),
        )

    def joined(values: list[str]) -> str:
        unique = list(dict.fromkeys(values))
        return "+".join(unique)

    return SimulationResult(
        kernel_name=joined([plan.kernel.name for plan in plans]),
        scheduler_name=joined(
            [plan.scheduler_name or type(plan.scheduler_factory()).__name__ for plan in plans]
        ),
        per_sm=stats_in_order,
        machine=merge_stats(stats_in_order),
        backend="lockstep",
        inter_sm_dram_conflicts=gpu.memory.inter_sm_dram_conflicts,
        per_tenant=per_tenant,
    )
