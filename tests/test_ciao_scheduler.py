"""Unit and integration tests for CIAO scheduling (Algorithm 1) and CIAO memory policy."""

import pytest

from repro.core.ciao_memory import CIAOOnChipMemory
from repro.core.ciao_scheduler import CIAOMode, CIAOScheduler
from repro.core.config import CIAOParameters
from repro.core.interference import InterferenceDetector
from repro.gpu.config import GPUConfig
from repro.gpu.cta import KernelLaunch
from repro.gpu.instruction import Instruction
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.warp import Warp
from repro.mem.subsystem import MemorySubsystem, MemorySubsystemConfig
from repro.mem.victim_tag_array import VTAHit


def make_warp(wid, **kwargs):
    return Warp(wid=wid, cta_id=0, instructions=iter([]), **kwargs)


class FakeStats:
    def __init__(self):
        self.throttle_events = 0
        self.reactivate_events = 0
        self.instructions_issued = 0


class FakeSharedCache:
    num_lines = 128


class FakeSM:
    def __init__(self, warps, shared_cache=True):
        self.warps = warps
        self.stats = FakeStats()
        self.shared_cache = FakeSharedCache() if shared_cache else None


class TestCIAOOnChipMemory:
    def test_isolate_and_restore(self):
        detector = InterferenceDetector()
        memory = CIAOOnChipMemory(detector)
        warp = make_warp(3)
        assert memory.isolate(warp, triggered_by_wid=7)
        assert warp.isolated
        assert detector.pair_entry(3).redirect_trigger == 7
        assert memory.restore(warp)
        assert not warp.isolated
        assert detector.pair_entry(3).redirect_trigger == -1

    def test_isolate_finished_or_already_isolated(self):
        memory = CIAOOnChipMemory(InterferenceDetector())
        warp = make_warp(1)
        warp.retire()
        assert not memory.isolate(warp, 0)
        warp2 = make_warp(2)
        memory.isolate(warp2, 0)
        assert not memory.isolate(warp2, 0)

    def test_requires_shared_cache_when_sm_given(self):
        memory = CIAOOnChipMemory(InterferenceDetector())
        warp = make_warp(1)
        sm = FakeSM([warp], shared_cache=False)
        assert not memory.isolate(warp, 0, sm)


class TestAlgorithmOne:
    """Drive the scheduler's epoch logic directly on a fake SM."""

    def _scheduler(self, mode, warps, shared_cache=True, params=None):
        sched = CIAOScheduler(mode=mode, params=params or CIAOParameters.paper_defaults())
        sm = FakeSM(warps, shared_cache=shared_cache)
        sched.attach(sm)
        return sched, sm

    def _interfere(self, sched, victim, aggressor, times=40):
        for _ in range(times):
            sched.notify_global_access(
                victim, False, VTAHit(wid=victim.wid, block=1, evictor_wid=aggressor.wid), "l1d", 0
            )

    def test_combined_isolates_then_stalls(self):
        victim, aggressor = make_warp(0), make_warp(1)
        sched, sm = self._scheduler(CIAOMode.COMBINED, [victim, aggressor])
        sm.stats.instructions_issued = 5000
        self._interfere(sched, victim, aggressor)
        sched._high_epoch_check()
        assert aggressor.isolated and aggressor.active
        # Still interfering while isolated -> next high epoch stalls it.
        self._interfere(sched, victim, aggressor)
        sm.stats.instructions_issued = 10000
        sched._high_epoch_check()
        assert not aggressor.active
        assert sched.detector.pair_entry(aggressor.wid).stall_trigger == victim.wid
        stalled = [
            w for w in (victim, aggressor)
            if not w.active and sched.detector.pair_entry(w.wid).stall_trigger >= 0
        ]
        assert stalled == [aggressor]

    def test_partition_only_never_stalls(self):
        victim, aggressor = make_warp(0), make_warp(1)
        sched, sm = self._scheduler(CIAOMode.PARTITION_ONLY, [victim, aggressor])
        sm.stats.instructions_issued = 5000
        self._interfere(sched, victim, aggressor)
        sched._high_epoch_check()
        self._interfere(sched, victim, aggressor)
        sched._high_epoch_check()
        assert aggressor.isolated
        assert aggressor.active

    def test_throttle_only_never_isolates(self):
        victim, aggressor = make_warp(0), make_warp(1)
        sched, sm = self._scheduler(CIAOMode.THROTTLE_ONLY, [victim, aggressor], shared_cache=False)
        sm.stats.instructions_issued = 5000
        self._interfere(sched, victim, aggressor)
        sched._high_epoch_check()
        assert not aggressor.isolated
        assert not aggressor.active

    def test_combined_falls_back_to_throttle_without_shared_cache(self):
        victim, aggressor = make_warp(0), make_warp(1)
        sched, sm = self._scheduler(CIAOMode.COMBINED, [victim, aggressor], shared_cache=False)
        sm.stats.instructions_issued = 5000
        self._interfere(sched, victim, aggressor)
        sched._high_epoch_check()
        assert not aggressor.active and not aggressor.isolated

    def test_no_action_below_cutoff(self):
        victim, aggressor = make_warp(0), make_warp(1)
        sched, sm = self._scheduler(CIAOMode.COMBINED, [victim, aggressor])
        sm.stats.instructions_issued = 5000
        self._interfere(sched, victim, aggressor, times=1)  # negligible IRS
        sched._high_epoch_check()
        assert not aggressor.isolated and aggressor.active

    def test_self_interference_ignored(self):
        victim = make_warp(0)
        sched, sm = self._scheduler(CIAOMode.COMBINED, [victim])
        sm.stats.instructions_issued = 5000
        for _ in range(40):
            sched.notify_global_access(
                victim, False, VTAHit(wid=0, block=1, evictor_wid=0), "l1d", 0
            )
        sched._high_epoch_check()
        assert victim.active and not victim.isolated

    def test_low_epoch_reactivates_when_trigger_subsides(self):
        victim, aggressor = make_warp(0), make_warp(1)
        sched, sm = self._scheduler(CIAOMode.THROTTLE_ONLY, [victim, aggressor], shared_cache=False)
        sm.stats.instructions_issued = 5000
        self._interfere(sched, victim, aggressor)
        sched._high_epoch_check()
        assert not aggressor.active
        # Quiet epochs: the victim's recent IRS drops below the low cutoff.
        sched.detector.advance_window(5000)
        sched.detector.advance_window(10000)
        sm.stats.instructions_issued = 10100
        sched._low_epoch_check()
        assert aggressor.active
        assert sm.stats.reactivate_events >= 1

    def test_low_epoch_restores_redirection_when_trigger_finished(self):
        victim, aggressor = make_warp(0), make_warp(1)
        sched, sm = self._scheduler(CIAOMode.PARTITION_ONLY, [victim, aggressor])
        sm.stats.instructions_issued = 5000
        self._interfere(sched, victim, aggressor)
        sched._high_epoch_check()
        assert aggressor.isolated
        victim.retire()
        sched._low_epoch_check()
        assert not aggressor.isolated

    def test_on_no_progress_releases_a_stalled_warp(self):
        victim, aggressor = make_warp(0), make_warp(1)
        sched, sm = self._scheduler(CIAOMode.THROTTLE_ONLY, [victim, aggressor], shared_cache=False)
        sm.stats.instructions_issued = 5000
        self._interfere(sched, victim, aggressor)
        sched._high_epoch_check()
        assert not aggressor.active
        assert sched.on_no_progress(0)
        assert aggressor.active

    def test_select_uses_gto_order(self):
        sched = CIAOScheduler()
        warps = [make_warp(2, assigned_at=5), make_warp(1, assigned_at=0)]
        assert sched.select(warps, 0).wid == 1
        assert sched.select([], 0) is None


class TestCIAOEndToEnd:
    """Run CIAO-C on a real SM with an interference-heavy workload model."""

    def test_ciao_c_detects_and_acts(self):
        from repro.harness.runner import run_benchmark

        result = run_benchmark("SYRK", "ciao-c", scale=0.15, seed=1)
        stats = result.sm0
        assert stats.warps_retired == 48
        assert stats.vta_hits > 0
        # CIAO should have taken at least one action (isolation or stall).
        assert stats.redirected_accesses > 0 or stats.throttle_events > 0

    def test_ciao_p_reaches_shared_cache_on_sm(self):
        """Self-contained SM-level check of the isolation datapath."""
        config = GPUConfig.gtx480()
        memory = MemorySubsystem(MemorySubsystemConfig.gtx480(), num_sms=1)
        params = CIAOParameters(high_epoch_instructions=500, low_epoch_instructions=50)
        scheduler = CIAOScheduler(CIAOMode.PARTITION_ONLY, params)
        sm = StreamingMultiprocessor(0, config, memory, scheduler, enable_shared_cache=True)

        def factory(cta, widx, wid):
            def stream():
                base = 0x100000 * (widx + 1)
                for rep in range(4):
                    for i in range(16):
                        address = base + i * 128
                        yield Instruction.load([address + lane * 4 for lane in range(32)])
                yield Instruction.exit()
            return stream()

        sm.launch(KernelLaunch("conflict", num_ctas=1, warps_per_cta=8, stream_factory=factory))
        # Force one warp's isolation to exercise the redirection datapath the
        # same way the scheduler would after a detection.
        scheduler.memory_arch.isolate(sm.warps[0], triggered_by_wid=1, sm=sm)
        stats = sm.run(2_000_000)
        assert stats.warps_retired == 8
        assert stats.redirected_accesses > 0
        assert sm.shared_cache.stats.accesses > 0
