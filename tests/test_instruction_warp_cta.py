"""Unit tests for instructions, warps and CTAs."""

import pytest

from repro.gpu.cta import CTA, KernelLaunch
from repro.gpu.instruction import (
    GLOBAL_MEMORY_KINDS,
    SHARED_MEMORY_KINDS,
    Instruction,
    InstructionKind,
)
from repro.gpu.warp import Warp, WarpState


def make_warp(instructions, wid=0, cta_id=0, **kwargs):
    return Warp(wid=wid, cta_id=cta_id, instructions=iter(instructions), **kwargs)


class TestInstruction:
    def test_constructors(self):
        assert Instruction.alu().kind is InstructionKind.ALU
        assert Instruction.load([0]).kind is InstructionKind.LOAD
        assert Instruction.store([0]).kind is InstructionKind.STORE
        assert Instruction.shared_load([0]).kind is InstructionKind.SHARED_LOAD
        assert Instruction.barrier().kind is InstructionKind.BARRIER
        assert Instruction.exit().kind is InstructionKind.EXIT

    def test_memory_needs_addresses(self):
        with pytest.raises(ValueError):
            Instruction(InstructionKind.LOAD)
        with pytest.raises(ValueError):
            Instruction(InstructionKind.SHARED_STORE)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Instruction(InstructionKind.ALU, latency=-1)

    def test_classification(self):
        load = Instruction.load([1, 2])
        assert load.kind in GLOBAL_MEMORY_KINDS and load.kind not in SHARED_MEMORY_KINDS
        sld = Instruction.shared_load([0])
        assert sld.kind in SHARED_MEMORY_KINDS and sld.kind not in GLOBAL_MEMORY_KINDS


class TestWarp:
    def test_peek_and_advance(self):
        warp = make_warp([Instruction.alu(), Instruction.exit()])
        assert warp.peek().kind is InstructionKind.ALU
        assert warp.advance().kind is InstructionKind.ALU
        assert warp.advance().kind is InstructionKind.EXIT

    def test_exhausted_stream_synthesises_exit(self):
        warp = make_warp([])
        assert warp.peek().kind is InstructionKind.EXIT

    def test_issuable_conditions(self):
        warp = make_warp([Instruction.alu()], max_pending_loads=2)
        assert warp.is_issuable(0)
        warp.pending_loads = 2
        assert not warp.is_issuable(0)
        warp.pending_loads = 1
        assert warp.is_issuable(0)
        warp.active = False
        assert warp.is_ready(0) and not warp.is_issuable(0)
        warp.active = True
        warp.at_barrier = True
        assert not warp.is_issuable(0)
        warp.at_barrier = False
        warp.ready_at = 10
        assert not warp.is_issuable(5)
        assert warp.is_issuable(10)

    def test_states(self):
        warp = make_warp([Instruction.alu()])
        assert warp.state is WarpState.READY
        warp.pending_loads = warp.max_pending_loads
        assert warp.state is WarpState.WAITING_MEMORY
        warp.pending_loads = 0
        warp.active = False
        assert warp.state is WarpState.THROTTLED
        warp.retire()
        assert warp.state is WarpState.FINISHED
        assert not warp.isolated

    def test_note_issue_counts_global_accesses(self):
        warp = make_warp([])
        warp.note_issue()
        warp.note_issue()
        assert warp.instructions_issued == 2


class TestCTA:
    def _cta_with_warps(self, n=3):
        cta = CTA(cta_id=0)
        warps = [make_warp([Instruction.alu()], wid=i) for i in range(n)]
        for warp in warps:
            cta.add_warp(warp)
        return cta, warps

    def test_barrier_releases_when_all_arrive(self):
        cta, warps = self._cta_with_warps(3)
        assert cta.arrive_at_barrier(warps[0]) == []
        assert cta.arrive_at_barrier(warps[1]) == []
        released = cta.arrive_at_barrier(warps[2])
        assert len(released) == 3
        assert all(not w.at_barrier for w in warps)
        assert cta.num_at_barrier == 0

    def test_finished_warps_do_not_block_barrier(self):
        cta, warps = self._cta_with_warps(3)
        warps[2].retire()
        cta.arrive_at_barrier(warps[0])
        released = cta.arrive_at_barrier(warps[1])
        assert len(released) == 2

    def test_release_if_unblocked_after_exit(self):
        cta, warps = self._cta_with_warps(2)
        cta.arrive_at_barrier(warps[0])
        warps[1].retire()
        released = cta.release_if_unblocked()
        assert warps[0] in released

    def test_is_finished(self):
        cta, warps = self._cta_with_warps(2)
        assert not cta.is_finished()
        for warp in warps:
            warp.retire()
        assert cta.is_finished()


class TestKernelLaunch:
    def test_validation(self):
        launch = KernelLaunch("k", num_ctas=2, warps_per_cta=4, stream_factory=lambda c, w, g: iter([]))
        launch.validate()
        assert launch.total_warps() == 8
        with pytest.raises(ValueError):
            KernelLaunch("k", 0, 4, lambda c, w, g: iter([])).validate()
        with pytest.raises(ValueError):
            KernelLaunch("k", 1, 1, lambda c, w, g: iter([]), shared_mem_per_cta=-1).validate()


class TestBarrierWaiterCounter:
    """CTA.num_at_barrier mirrors the at_barrier flags (O(1) SM check)."""

    def _cta_with_warps(self, n=3):
        cta = CTA(cta_id=0)
        warps = [make_warp([Instruction.alu()], wid=i) for i in range(n)]
        for warp in warps:
            cta.add_warp(warp)
        return cta, warps

    def test_counter_tracks_arrivals_and_release(self):
        cta, warps = self._cta_with_warps(3)
        cta.arrive_at_barrier(warps[0])
        cta.arrive_at_barrier(warps[1])
        assert cta.num_at_barrier == 2
        cta.arrive_at_barrier(warps[2])  # releases everyone
        assert cta.num_at_barrier == 0
        assert all(not w.at_barrier for w in warps)

    def test_counter_after_release_if_unblocked(self):
        cta, warps = self._cta_with_warps(2)
        cta.arrive_at_barrier(warps[0])
        assert cta.num_at_barrier == 1
        warps[1].retire()
        cta.release_if_unblocked()
        assert cta.num_at_barrier == 0

    def test_interned_address_free_instructions(self):
        # Frozen, address-free instructions are shared instances.
        assert Instruction.alu() is Instruction.alu()
        assert Instruction.barrier() is Instruction.barrier()
        assert Instruction.exit() is Instruction.exit()
        assert Instruction.alu(4) is Instruction.alu(4)
        assert Instruction.alu(4) is not Instruction.alu()
        # Address-carrying instructions stay distinct objects.
        assert Instruction.load([0]) is not Instruction.load([0])
