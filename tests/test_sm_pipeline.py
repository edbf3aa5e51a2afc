"""Integration tests for the SM pipeline (issue, memory path, barriers, CIAO hooks)."""

import pytest

from repro.gpu.config import GPUConfig
from repro.gpu.cta import KernelLaunch
from repro.gpu.instruction import Instruction
from repro.gpu.sm import StreamingMultiprocessor
from repro.mem.subsystem import MemorySubsystem, MemorySubsystemConfig
from repro.sched.gto import GTOScheduler
from repro.sched.lrr import LooseRoundRobinScheduler


def build_sm(scheduler=None, *, enable_shared_cache=False, config=None):
    config = config or GPUConfig.gtx480()
    memory = MemorySubsystem(MemorySubsystemConfig.gtx480(), num_sms=1)
    return StreamingMultiprocessor(
        0, config, memory, scheduler or GTOScheduler(), enable_shared_cache=enable_shared_cache
    )


def launch_and_run(sm, streams, warps_per_cta=None, num_ctas=1, shared_mem=0, max_cycles=500_000):
    """streams: list of instruction lists, one per warp (single CTA by default)."""
    warps_per_cta = warps_per_cta or len(streams)

    def factory(cta, widx, wid):
        return iter(list(streams[cta * warps_per_cta + widx]))

    kernel = KernelLaunch(
        "test", num_ctas=num_ctas, warps_per_cta=warps_per_cta,
        stream_factory=factory, shared_mem_per_cta=shared_mem,
    )
    sm.launch(kernel)
    return sm.run(max_cycles)


class TestBasicExecution:
    def test_alu_only_warp_retires(self):
        sm = build_sm()
        stats = launch_and_run(sm, [[Instruction.alu() for _ in range(10)] + [Instruction.exit()]])
        assert stats.warps_retired == 1
        assert stats.instructions_issued == 11
        assert stats.cycles > 0

    def test_ipc_bounded_by_issue_width(self):
        sm = build_sm()
        streams = [[Instruction.alu() for _ in range(100)] + [Instruction.exit()] for _ in range(4)]
        stats = launch_and_run(sm, streams)
        assert stats.warp_ipc <= 1.0 + 1e-9
        assert stats.ipc <= 32.0 + 1e-9

    def test_load_miss_then_reuse_hits(self):
        sm = build_sm()
        addr = [lane * 4 for lane in range(32)]
        stream = [Instruction.load(addr), Instruction.load(addr), Instruction.exit()]
        stats = launch_and_run(sm, [stream])
        assert stats.l1d_misses == 1
        assert stats.l1d_hits == 1

    def test_store_does_not_allocate(self):
        sm = build_sm()
        addr = [lane * 4 for lane in range(32)]
        stream = [Instruction.store(addr), Instruction.load(addr), Instruction.exit()]
        stats = launch_and_run(sm, [stream])
        assert stats.l1d_misses == 2  # store miss (no allocate) + load miss

    def test_memory_latency_costs_cycles(self):
        sm_mem = build_sm()
        addr = [lane * 4 for lane in range(32)]
        mem_stats = launch_and_run(sm_mem, [[Instruction.load([a + i * 4096 for a in addr]) for i in range(8)] + [Instruction.exit()]])
        sm_alu = build_sm()
        alu_stats = launch_and_run(sm_alu, [[Instruction.alu() for _ in range(9)] + [Instruction.exit()]])
        assert mem_stats.cycles > alu_stats.cycles

    def test_run_without_launch_raises(self):
        sm = build_sm()
        with pytest.raises(RuntimeError):
            sm.run()


class TestBarriersAndCTAs:
    def test_barrier_synchronises_cta(self):
        sm = build_sm()
        fast = [Instruction.alu(), Instruction.barrier(), Instruction.alu(), Instruction.exit()]
        slow = [Instruction.alu()] * 50 + [Instruction.barrier(), Instruction.alu(), Instruction.exit()]
        stats = launch_and_run(sm, [fast, slow])
        assert stats.warps_retired == 2
        assert stats.barriers_executed == 2

    def test_multiple_ctas_resident_and_slot_reuse(self):
        config = GPUConfig.gtx480().with_overrides(max_ctas_per_sm=2)
        sm = build_sm(config=config)
        streams = [[Instruction.alu() for _ in range(5)] + [Instruction.exit()] for _ in range(4 * 2)]
        stats = launch_and_run(sm, streams, warps_per_cta=2, num_ctas=4)
        assert stats.warps_retired == 8

    def test_shared_memory_allocation_per_cta(self):
        sm = build_sm()
        stream = [Instruction.shared_load([i * 8 for i in range(32)]), Instruction.exit()]
        stats = launch_and_run(sm, [stream], shared_mem=4096)
        assert stats.shared_memory_instructions == 1
        # CTA finished: its scratchpad allocation is released.
        assert sm.shared_memory.smmt.unused_bytes() == sm.shared_memory.capacity_bytes


class TestThrottlingSemantics:
    def test_throttled_warp_blocks_at_global_load(self):
        sm = build_sm(LooseRoundRobinScheduler())
        addr = [lane * 4 for lane in range(32)]
        streams = [
            [Instruction.alu(), Instruction.load(addr), Instruction.exit()],
            [Instruction.alu() for _ in range(20)] + [Instruction.exit()],
        ]

        def factory(cta, widx, wid):
            return iter(list(streams[widx]))

        sm.launch(KernelLaunch("t", 1, 2, factory))
        throttled = sm.warps[0]
        throttled.active = False
        # The throttled warp may issue its ALU instruction but not the load,
        # as long as its CTA is not waiting at a barrier.
        sm.run(2000)
        assert throttled.instructions_issued >= 1
        assert sm.stats.warps_retired >= 1

    def test_no_progress_guard_reactivates(self):
        sm = build_sm(LooseRoundRobinScheduler())
        addr = [lane * 4 for lane in range(32)]
        streams = [[Instruction.load(addr), Instruction.exit()]]

        def factory(cta, widx, wid):
            return iter(list(streams[widx]))

        sm.launch(KernelLaunch("t", 1, 1, factory))
        sm.warps[0].active = False
        stats = sm.run(200_000)
        # Without the guard the run would never finish.
        assert stats.warps_retired == 1


class TestCIAOMemoryPath:
    def test_isolated_warp_uses_shared_cache(self):
        sm = build_sm(enable_shared_cache=True)
        addr = [lane * 4 for lane in range(32)]
        stream = [Instruction.load(addr), Instruction.load(addr), Instruction.exit()]

        def factory(cta, widx, wid):
            return iter(list(stream))

        sm.launch(KernelLaunch("t", 1, 1, factory))
        sm.warps[0].isolated = True
        stats = sm.run(100_000)
        assert stats.redirected_accesses >= 2
        assert sm.shared_cache.stats.accesses >= 2
        assert stats.shared_cache_hit_rate > 0

    def test_migration_from_l1_to_shared(self):
        # A single outstanding load per warp makes the warp block on the first
        # load, so we can flip its isolation bit before the second one issues.
        config = GPUConfig.gtx480().with_overrides(max_outstanding_loads_per_warp=1)
        sm = build_sm(enable_shared_cache=True, config=config)
        addr = [lane * 4 for lane in range(32)]
        stream = [Instruction.load(addr), Instruction.load(addr), Instruction.exit()]

        def factory(cta, widx, wid):
            return iter(list(stream))

        sm.launch(KernelLaunch("t", 1, 1, factory))
        warp = sm.warps[0]
        # First load goes to the L1D, then the warp is isolated; the second
        # load must migrate the block from the L1D into shared memory.
        sm.run(5)  # first load issued and pending
        warp.isolated = True
        stats = sm.run(100_000)
        assert stats.migrations_l1_to_shared >= 1
        assert not sm.l1d.contains(addr[0])

    def test_shared_cache_disabled_by_default(self):
        sm = build_sm(enable_shared_cache=False)
        assert sm.shared_cache is None


class TestVTAIntegration:
    def test_interference_detected_between_conflicting_warps(self):
        # Two warps ping-pong on the same cache set with more blocks than ways.
        config = GPUConfig.gtx480()
        sm = build_sm(LooseRoundRobinScheduler(), config=config)
        num_sets = config.l1d.num_sets

        def conflicting_stream(offset_blocks):
            instrs = []
            for rep in range(20):
                for way in range(3):
                    block = (offset_blocks + way * 2) * num_sets  # same set under linear map
                    instrs.append(Instruction.load([block * 128 + lane * 4 for lane in range(32)]))
            instrs.append(Instruction.exit())
            return instrs

        streams = [conflicting_stream(0), conflicting_stream(1)]

        def factory(cta, widx, wid):
            return iter(list(streams[widx]))

        config_linear = GPUConfig.gtx480()
        config_linear.l1d.set_hash = "linear"
        sm = StreamingMultiprocessor(
            0, config_linear, MemorySubsystem(MemorySubsystemConfig.gtx480(), 1), LooseRoundRobinScheduler()
        )
        sm.launch(KernelLaunch("t", 1, 2, factory))
        stats = sm.run(500_000)
        assert stats.vta_hits > 0
        assert stats.interference_matrix


class TestReadyIndexAndSlotReuse:
    """Regression tests for the incremental ready index (PR 3)."""

    def test_fill_for_retired_slot_resolves_to_live_warp(self):
        # A warp retires with a load still in flight; its CTA retires and the
        # slot is immediately reused by the next CTA.  The late fill must
        # resolve wid -> the *live* warp (and leave it untouched, since its
        # pending_loads is zero), never the retired one.
        config = GPUConfig.gtx480().with_overrides(max_ctas_per_sm=1)
        sm = build_sm(config=config)
        addr = [lane * 4 for lane in range(32)]
        streams = {
            0: [Instruction.load(addr), Instruction.exit()],
            1: [Instruction.alu() for _ in range(40)] + [Instruction.exit()],
        }

        def factory(cta, widx, wid):
            return iter(list(streams[cta]))

        sm.launch(KernelLaunch("t", 2, 1, factory))
        first = sm.warps[0]
        sm.step_cycle(0)  # load issues and misses (fill in flight)
        sm.step_cycle(1)  # exit retires the warp; CTA 1 reuses slot 0
        assert first.finished and first.pending_loads == 1
        live = sm._warps_by_wid.get(0)
        assert live is not None and live is not first and not live.finished
        assert live.pending_loads == 0
        stats = sm.run()  # drains the in-flight fill along the way
        assert stats.warps_retired == 2
        # The stale fill neither corrupted the live warp nor resurrected the
        # retired one.
        assert first.pending_loads == 1
        assert live.finished and live.pending_loads == 0

    def test_freed_slots_are_reused_lowest_first(self):
        # One CTA resident at a time: each admission must pick the lowest
        # freed slot, exactly like the historical sorted-list behaviour.
        config = GPUConfig.gtx480().with_overrides(max_ctas_per_sm=1)
        sm = build_sm(config=config)
        observed = []

        def factory(cta, widx, wid):
            observed.append((cta, wid))
            return iter([Instruction.alu(), Instruction.exit()])

        sm.launch(KernelLaunch("t", 3, 2, factory))
        sm.run()
        assert observed == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]

    def test_issuable_order_matches_warps_scan_order(self):
        # The ready index must present issuable warps in self.warps order.
        sm = build_sm(LooseRoundRobinScheduler())
        streams = [[Instruction.alu() for _ in range(4)] + [Instruction.exit()]
                   for _ in range(3)]

        def factory(cta, widx, wid):
            return iter(list(streams[widx]))

        sm.launch(KernelLaunch("t", 1, 3, factory))
        issuable = sm._issuable_warps(0)
        assert issuable == [w for w in sm.warps if w.is_issuable(0)]

    def test_ready_index_survives_throttle_flips_between_runs(self):
        # active/isolated are scheduler-owned and not indexed: flipping them
        # between run() calls (as schedulers and tests do) must be honoured.
        sm = build_sm(LooseRoundRobinScheduler())
        streams = [[Instruction.alu() for _ in range(30)] + [Instruction.exit()],
                   [Instruction.alu() for _ in range(30)] + [Instruction.exit()]]

        def factory(cta, widx, wid):
            return iter(list(streams[widx]))

        sm.launch(KernelLaunch("t", 1, 2, factory))
        sm.run(5)
        throttled = sm.warps[0]
        throttled.active = False
        before = throttled.instructions_issued
        sm.run(10)  # ALU instructions may still issue despite the throttle
        assert throttled.instructions_issued >= before
        stats = sm.run()
        assert stats.warps_retired == 2


class TestSchedulerHookResolution:
    def test_base_noop_hooks_resolve_to_none(self):
        from repro.sched.base import resolve_hooks

        hooks = resolve_hooks(GTOScheduler())
        assert hooks.on_cycle is None            # inherited no-op
        assert hooks.should_bypass_l1 is None    # inherited constant-False
        assert hooks.notify_issue is not None    # overridden by GTO
        assert hooks.on_warp_retired is not None

    def test_duck_typed_scheduler_without_hooks(self):
        from repro.sched.base import resolve_hooks

        class Bare:
            def select(self, issuable, now):
                return issuable[0] if issuable else None

        hooks = resolve_hooks(Bare())
        assert hooks.on_cycle is None and hooks.notify_issue is None
        sm = build_sm(Bare())
        stats = launch_and_run(sm, [[Instruction.alu(), Instruction.exit()]])
        assert stats.warps_retired == 1

    def test_instance_attribute_hook_is_kept(self):
        from repro.sched.base import resolve_hooks

        scheduler = GTOScheduler()
        calls = []
        scheduler.on_cycle = lambda now: calls.append(now)
        hooks = resolve_hooks(scheduler)
        assert hooks.on_cycle is not None
        sm = build_sm(scheduler)
        launch_and_run(sm, [[Instruction.alu(), Instruction.exit()]])
        assert calls
