"""Workload trace extraction and interning for the vector engine.

The reference engine consumes each warp's instruction stream lazily from a
Python generator (RNG draws, pattern iterators and ``Instruction``
construction interleaved with simulation).  The vector engine instead
*extracts* each warp's stream exactly once into compact stdlib tables:

* ``kind_codes`` — per-instruction kind codes (``bytes``);
* ``sticky_end`` — for every instruction index, the first index at or after
  it that ends a run of latency-1 ALU instructions (the unit of the
  engine's batched issue);
* ``access_index`` — each global or scratchpad access's ordinal among the
  accesses of its class, indexing the tables below;
* the *pre-coalesced* memory transactions: per global load or store, the
  distinct 128-byte blocks in first-appearance order (exactly
  ``Coalescer.coalesce``'s output) plus the lane count, so the per-issue
  coalescing dictionary work disappears.  The per-lane addresses are not
  kept (they would be most of a trace's bytes): the replayed instruction of
  a global access is a shared per-kind stand-in (:data:`REPLAYED_ACCESS`);
* per-cache-geometry set indices for every transaction, computed once with
  the same set hash the cache applies per probe.

Extraction replays the *same* generator the reference engine would consume,
so the tables are bit-faithful by construction; the cost is paid once per
kernel identity and interned in a small LRU (:func:`kernel_trace_for_model`),
so every request over that kernel in the process shares it.

Traces are keyed by everything the stream depends on — benchmark spec,
scale, seed and launch geometry — and deliberately *not* by the machine
configuration: the same trace serves every cache geometry, with per-geometry
set indices computed (and memoised) on first use.
"""

from __future__ import annotations

import json
from array import array
from collections import OrderedDict
from typing import Callable, Optional

from repro.gpu.cta import KernelLaunch
from repro.gpu.instruction import Instruction, InstructionKind
from repro.mem.address import BLOCK_SIZE
from repro.mem.hashing import get_set_hash, specialize_set_hash

#: Compact instruction-kind codes used by the trace tables.
KIND_CODE = {
    InstructionKind.ALU: 0,
    InstructionKind.LOAD: 1,
    InstructionKind.STORE: 2,
    InstructionKind.SHARED_LOAD: 3,
    InstructionKind.SHARED_STORE: 4,
    InstructionKind.BARRIER: 5,
    InstructionKind.EXIT: 6,
}

_K_ALU = InstructionKind.ALU
_K_LOAD = InstructionKind.LOAD
_K_STORE = InstructionKind.STORE
_K_SHARED_LOAD = InstructionKind.SHARED_LOAD
_K_SHARED_STORE = InstructionKind.SHARED_STORE

#: What a trace replays for a global load or store: one shared instruction
#: per kind.  The access itself lives in the trace's tables; the stand-in's
#: only address is -1, which the coalescer rejects, so a replayed access can
#: never slip into the reference memory path with a made-up address.
REPLAYED_ACCESS = {
    _K_LOAD: Instruction(_K_LOAD, (-1,)),
    _K_STORE: Instruction(_K_STORE, (-1,)),
}


class WarpTrace:
    """One warp's fully-extracted instruction stream (see module docstring)."""

    __slots__ = (
        "instructions",
        "kind_codes",
        "sticky_end",
        "access_index",
        "mem_blocks",
        "mem_lanes",
        "shared_addrs",
        "_sets_by_geometry",
        "_shared_costs",
    )

    def __init__(self, instructions: list[Instruction]) -> None:
        if not instructions or instructions[-1].kind is not InstructionKind.EXIT:
            # The reference engine synthesises EXIT when a stream runs dry;
            # making it explicit here is behaviourally identical (peek()
            # hands out the same interned singleton) and guarantees the
            # tables cover every index the engine can reach.
            instructions = [*instructions, Instruction.exit()]
        n = len(instructions)
        kind_code = KIND_CODE
        codes = bytearray(n)
        # Every instruction ends its own run until the pass below marks it
        # sticky (a latency-1 ALU instruction, flagged with ``n``).
        sticky_end = array("i", range(n))
        access_index = array("i", [-1]) * n
        mem_blocks: list[tuple[int, ...]] = []
        mem_lanes = array("i")
        shared_addrs: list[tuple[int, ...]] = []
        replayed = list(instructions)
        for position, instruction in enumerate(instructions):
            kind = instruction.kind
            codes[position] = kind_code[kind]
            if kind is _K_ALU:
                if instruction.latency == 1:
                    sticky_end[position] = n
            elif kind is _K_LOAD or kind is _K_STORE:
                addresses = instruction.addresses
                if min(addresses) < 0:
                    raise ValueError("memory addresses must be non-negative")
                access_index[position] = len(mem_blocks)
                mem_blocks.append(
                    tuple(dict.fromkeys([a // BLOCK_SIZE for a in addresses]))
                )
                mem_lanes.append(len(addresses))
                replayed[position] = REPLAYED_ACCESS[kind]
            elif kind is _K_SHARED_LOAD or kind is _K_SHARED_STORE:
                access_index[position] = len(shared_addrs)
                shared_addrs.append(instruction.addresses)
        # A sticky run ends at the next non-sticky instruction (the trailing
        # EXIT at the latest).
        run_end = n
        for position in range(n - 1, -1, -1):
            if sticky_end[position] == n:
                sticky_end[position] = run_end
            else:
                run_end = position
        self.instructions = replayed
        self.kind_codes = bytes(codes)
        self.sticky_end = sticky_end
        self.access_index = access_index
        self.mem_blocks = mem_blocks
        self.mem_lanes = mem_lanes
        self.shared_addrs = shared_addrs
        self._sets_by_geometry: dict[tuple, list[tuple[int, ...]]] = {}
        self._shared_costs: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}

    def __len__(self) -> int:
        return len(self.instructions)

    def shared_costs_for(
        self, base: int, limit: int, *, bank_width: int, num_banks: int
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Per-scratchpad-instruction ``(cycles, rows)`` for one allocation.

        Reproduces ``SharedMemory.access`` over the reference engine's
        remapped offsets ``base + (offset % max(1, limit))``: ``cycles`` is
        the worst per-bank request count, ``rows`` the distinct rows touched
        (for the utilisation statistic).  Memoised per ``(base, limit)`` —
        allocations are stable while a CTA is resident, so the engine looks
        the table up once at admission.
        """
        key = (base, limit, bank_width, num_banks)
        cached = self._shared_costs.get(key)
        if cached is not None:
            return cached
        modulo = limit if limit > 1 else 1
        row_bytes = bank_width * num_banks
        costs: list[tuple[int, tuple[int, ...]]] = []
        for lanes in self.shared_addrs:
            offsets = [base + (a % modulo) for a in lanes]
            per_bank: dict[int, int] = {}
            for offset in offsets:
                bank = (offset // bank_width) % num_banks
                per_bank[bank] = per_bank.get(bank, 0) + 1
            costs.append(
                (
                    max(per_bank.values()),
                    tuple({offset // row_bytes for offset in offsets}),
                )
            )
        self._shared_costs[key] = costs
        return costs

    def sets_for_geometry(self, geometry: tuple) -> list[tuple[int, ...]]:
        """Per-memory-instruction set indices for ``(num_sets, set_hash)``.

        Computed once per geometry with the cache's own set hash (see
        :mod:`repro.mem.hashing`), aligned with :attr:`mem_blocks`.
        """
        cached = self._sets_by_geometry.get(geometry)
        if cached is not None:
            return cached
        num_sets, set_hash = geometry
        index_of = specialize_set_hash(get_set_hash(set_hash), num_sets)
        sets = [
            tuple([index_of(block) for block in blocks]) for blocks in self.mem_blocks
        ]
        self._sets_by_geometry[geometry] = sets
        return sets


class KernelTrace:
    """Lazily-extracted per-(CTA, warp) traces of one kernel launch.

    Extraction runs the launch's own ``stream_factory`` — the exact
    generator the reference engine would consume — so replay is bit-faithful.
    Streams are extracted on first use (a cycle-budget-truncated run never
    pays for warps it does not admit) and memoised for the lifetime of the
    trace: the intern cache shares a single-kernel trace across requests,
    while a co-located tenant's trace is built per job and shared by the
    tenant's SMs.

    The engines only materialise synthetic workload kernels (address-isolated
    ones included), whose streams depend on ``(cta_index, warp_index)`` but
    not on the physical warp slot; extraction passes slot 0 and the engine
    replays the trace on whatever slot the admission logic assigns (matching
    the reference engine, where the slot does not influence the stream
    either).
    """

    def __init__(self, kernel: KernelLaunch) -> None:
        self.name = kernel.name
        self.num_ctas = kernel.num_ctas
        self.warps_per_cta = kernel.warps_per_cta
        self._stream_factory = kernel.stream_factory
        self._warps: dict[tuple[int, int], WarpTrace] = {}

    def warp(self, cta_index: int, warp_index: int) -> WarpTrace:
        """The trace of ``(cta_index, warp_index)`` (extracted on first use)."""
        key = (cta_index, warp_index)
        trace = self._warps.get(key)
        if trace is None:
            stream = self._stream_factory(cta_index, warp_index, 0)
            trace = WarpTrace(list(stream))
            self._warps[key] = trace
        return trace


# ---------------------------------------------------------------------------
# Intern cache: one KernelTrace per kernel identity
# ---------------------------------------------------------------------------
#: Maximum number of distinct kernel identities kept extracted.  Sized for a
#: sweep's working set (a figure touches a handful of benchmarks); eviction
#: is LRU and only costs re-extraction.
TRACE_CACHE_CAPACITY = 16

_TRACE_CACHE: OrderedDict[str, KernelTrace] = OrderedDict()


def trace_cache_info() -> tuple[int, int]:
    """``(entries, capacity)`` of the intern cache (introspection/tests)."""
    return len(_TRACE_CACHE), TRACE_CACHE_CAPACITY


def clear_trace_cache() -> None:
    """Drop every interned trace (tests / memory pressure)."""
    _TRACE_CACHE.clear()


def kernel_trace_for_model(
    model,
    kernel: Optional[KernelLaunch] = None,
    *,
    key_fn: Optional[Callable[[], str]] = None,
) -> KernelTrace:
    """Interned :class:`KernelTrace` for a ``SyntheticKernelModel``.

    The intern key covers everything the streams depend on: the full
    benchmark spec (model parameters included), scale, seed and the resolved
    launch geometry.  ``kernel`` avoids rebuilding the launch when the
    caller already has it.
    """
    if key_fn is not None:
        key = key_fn()
    else:
        from repro.api import encode_value

        key = json.dumps(
            {
                "spec": encode_value(model.spec),
                "scale": model.scale,
                "seed": model.seed,
                "num_ctas": model.num_ctas,
                "warps_per_cta": model.warps_per_cta,
            },
            sort_keys=True,
        )
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        _TRACE_CACHE.move_to_end(key)
        return trace
    trace = KernelTrace(kernel if kernel is not None else model.kernel_launch())
    _TRACE_CACHE[key] = trace
    while len(_TRACE_CACHE) > TRACE_CACHE_CAPACITY:
        _TRACE_CACHE.popitem(last=False)
    return trace
