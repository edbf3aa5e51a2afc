"""Warp instruction model.

The simulator is warp-level: one :class:`Instruction` represents one warp
instruction (executed by up to 32 lanes in lock-step).  Only the properties
that matter to warp scheduling and the memory hierarchy are modelled:

* ``ALU`` instructions occupy an issue slot and retire immediately (their
  latency is hidden by the in-order scoreboard only when a dependent memory
  instruction follows, which the workload models fold into instruction
  counts).
* ``LOAD`` / ``STORE`` are *global memory* accesses; they carry the per-lane
  byte addresses which the coalescer merges into 128-byte transactions.
* ``SHARED_LOAD`` / ``SHARED_STORE`` access the program-managed shared
  memory region (scratchpad) of the warp's CTA.
* ``BARRIER`` blocks the warp until every warp of its CTA has arrived.
* ``EXIT`` retires the warp.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence


class InstructionKind(enum.Enum):
    """Kinds of warp instructions the simulator distinguishes."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    SHARED_LOAD = "shared_load"
    SHARED_STORE = "shared_store"
    BARRIER = "barrier"
    EXIT = "exit"


#: Compact kind codes, in declaration order (ALU 0 ... EXIT 6): the first
#: field of a workload op (:data:`repro.gpu.cta.WarpOp`) and the entries of a
#: trace's ``kind_codes``.
KIND_CODE = {kind: code for code, kind in enumerate(InstructionKind)}

#: Lanes per warp instruction.
WARP_LANES = 32

#: Kinds that access global memory through the L1D (or CIAO's shared cache).
GLOBAL_MEMORY_KINDS = frozenset({InstructionKind.LOAD, InstructionKind.STORE})

#: Kinds that access the program-managed scratchpad.
SHARED_MEMORY_KINDS = frozenset({InstructionKind.SHARED_LOAD, InstructionKind.SHARED_STORE})


@dataclass(frozen=True, slots=True)
class Instruction:
    """One warp instruction.

    Instances are allocated once per simulated warp instruction (millions per
    run), so the class is slotted to keep construction and attribute access
    cheap.

    Attributes
    ----------
    kind:
        The instruction kind.
    addresses:
        For global memory instructions: per-lane byte addresses (1..32
        entries; already-coalesced workloads may provide one address per
        distinct 128-byte block).  For shared-memory instructions: per-lane
        byte offsets within the CTA's scratchpad allocation.
    latency:
        Extra execution latency for ALU instructions (transcendentals etc.);
        ignored for memory instructions whose latency is determined by the
        memory system.
    """

    kind: InstructionKind
    addresses: tuple[int, ...] = field(default_factory=tuple)
    latency: int = 1

    def __post_init__(self) -> None:
        if self.kind in GLOBAL_MEMORY_KINDS or self.kind in SHARED_MEMORY_KINDS:
            if not self.addresses:
                raise ValueError(f"{self.kind.value} instruction needs at least one address")
        if self.latency < 0:
            raise ValueError("latency cannot be negative")

    # -- convenience constructors -------------------------------------------
    # Address-free instructions are immutable and carry no per-issue state,
    # so the constructors below hand out interned instances: a workload
    # stream emits millions of ALU instructions and one object serves them
    # all.
    @staticmethod
    def alu(latency: int = 1) -> "Instruction":
        """An arithmetic instruction."""
        instruction = _ALU_CACHE.get(latency)
        if instruction is None:
            instruction = Instruction(InstructionKind.ALU, latency=latency)
            _ALU_CACHE[latency] = instruction
        return instruction

    @staticmethod
    def load(addresses: Sequence[int]) -> "Instruction":
        """A global load touching the given per-lane byte addresses."""
        return Instruction(InstructionKind.LOAD, addresses=tuple(addresses))

    @staticmethod
    def store(addresses: Sequence[int]) -> "Instruction":
        """A global store touching the given per-lane byte addresses."""
        return Instruction(InstructionKind.STORE, addresses=tuple(addresses))

    @staticmethod
    def shared_load(offsets: Sequence[int]) -> "Instruction":
        """A scratchpad load at the given per-lane byte offsets."""
        return Instruction(InstructionKind.SHARED_LOAD, addresses=tuple(offsets))

    @staticmethod
    def shared_store(offsets: Sequence[int]) -> "Instruction":
        """A scratchpad store at the given per-lane byte offsets."""
        return Instruction(InstructionKind.SHARED_STORE, addresses=tuple(offsets))

    @staticmethod
    def barrier() -> "Instruction":
        """A CTA-wide barrier."""
        return _BARRIER_SINGLETON

    @staticmethod
    def exit() -> "Instruction":
        """Warp termination."""
        return _EXIT_SINGLETON


#: Interned address-free instructions (see the constructor notes above).
_ALU_CACHE: dict[int, Instruction] = {}
_BARRIER_SINGLETON = Instruction(InstructionKind.BARRIER)
_EXIT_SINGLETON = Instruction(InstructionKind.EXIT)
