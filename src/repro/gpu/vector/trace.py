"""Workload trace extraction and interning for the vector engine.

The reference engine consumes each warp's instruction stream lazily from a
Python generator (RNG draws, pattern iterators and ``Instruction``
construction interleaved with simulation).  The vector engine instead
*packs* each warp's stream exactly once into compact stdlib tables:

* ``kind_codes`` — per-instruction kind codes (``bytes``);
* ``sticky_end`` — for every instruction index, the first index at or after
  it that ends a run of latency-1 ALU instructions (the unit of the
  engine's batched issue);
* ``access_index`` — each global or scratchpad access's ordinal among the
  accesses of its class, indexing the tables below;
* the *pre-coalesced* memory transactions: per global load or store, the
  distinct 128-byte blocks in first-appearance order (exactly
  ``Coalescer.coalesce``'s output over the lane addresses) plus the lane
  count, so the per-issue coalescing dictionary work disappears;
* ``shared_addrs`` — per scratchpad access, its per-lane offsets;
* per-cache-geometry set indices for every transaction, computed once with
  the same set hash the cache applies per probe.

Packing reads the launch's ops (:data:`repro.gpu.cta.WarpOp`): the stream
the workload generator draws, of which the reference engine's instructions
are a lane-expanded view.  A global op already carries its drawn block
numbers, so no per-lane address or :class:`Instruction` is built for an
access; the replayed instruction of an access is a shared per-kind
stand-in (:data:`REPLAYED`).  The cost is paid once per kernel identity
and interned in a small LRU (:func:`kernel_trace_for_model`), so every
request over that kernel in the process shares it.

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

from repro.gpu.cta import KernelLaunch, WarpOp
from repro.gpu.instruction import KIND_CODE, WARP_LANES, Instruction
from repro.mem.hashing import get_set_hash, specialize_set_hash

_C_ALU, _, _C_STORE, _, _C_SHARED_STORE, _, _C_EXIT = KIND_CODE.values()

#: What a trace replays, by kind code: the interned ALU, barrier and exit
#: instructions, and one shared stand-in per access kind.  The access itself
#: lives in the trace's tables; a stand-in's only address is -1, which the
#: coalescer rejects, so a replayed global access can never slip into the
#: reference memory path with a made-up address.
REPLAYED = (
    Instruction.alu(),
    *[Instruction(kind, (-1,)) for kind in list(KIND_CODE)[_C_ALU + 1 : _C_SHARED_STORE + 1]],
    Instruction.barrier(),
    Instruction.exit(),
)


class WarpTrace:
    """One warp's fully-packed instruction stream (see module docstring)."""

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

    def __init__(self, ops: list[WarpOp]) -> None:
        if not ops or ops[-1][0] != _C_EXIT:
            # The reference engine synthesises EXIT when a stream runs dry;
            # an explicit one makes the tables cover every reachable index.
            ops = [*ops, (_C_EXIT, ())]
        codes = bytes([op[0] for op in ops])
        n = len(codes)
        # Every instruction ends its own run; a run of ALU instructions (all
        # latency 1) ends at the next other instruction (EXIT at the latest).
        sticky_end = list(range(n))
        access_index = [-1] * n
        mem_blocks: list[tuple[int, ...]] = []
        shared_addrs: list[tuple[int, ...]] = []
        run_start = 0
        for position, (code, payload) in enumerate(ops):
            if code == _C_ALU:
                continue
            if run_start < position:
                sticky_end[run_start:position] = [position] * (position - run_start)
            run_start = position + 1
            if code <= _C_STORE:
                access_index[position] = len(mem_blocks)
                # Lanes cycle over the drawn blocks, so the coalescer's
                # distinct blocks are the draws, deduplicated in
                # first-appearance order.
                mem_blocks.append(
                    payload if len(payload) == 1 else tuple(dict.fromkeys(payload))
                )
            elif code <= _C_SHARED_STORE:
                access_index[position] = len(shared_addrs)
                shared_addrs.append(payload)
        self.instructions = [REPLAYED[code] for code in codes]
        self.kind_codes = codes
        self.sticky_end = array("i", sticky_end)
        self.access_index = array("i", access_index)
        self.mem_blocks = mem_blocks
        self.mem_lanes = array("i", [WARP_LANES]) * len(mem_blocks)
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

    Extraction packs the launch's ``op_factory`` — the ops its
    ``stream_factory``, the reference engine's input, expands — so replay
    is bit-faithful.  Streams are extracted on first use (a
    cycle-budget-truncated run never pays for warps it does not admit) and
    memoised for the lifetime of the trace: the intern cache shares a
    single-kernel trace across requests, while a co-located tenant's trace
    is built per job and shared by the tenant's SMs.

    The engines only materialise synthetic workload kernels (address-isolated
    ones included), whose ops depend on ``(cta_index, warp_index)`` but not
    on the physical warp slot, so the engine replays a trace on whatever
    slot the admission logic assigns (matching the reference engine, where
    the slot does not influence the stream either).
    """

    def __init__(self, kernel: KernelLaunch) -> None:
        if kernel.op_factory is None:
            raise ValueError(f"kernel {kernel.name!r} has no ops to trace")
        self._op_factory = kernel.op_factory
        self._warps: dict[tuple[int, int], WarpTrace] = {}

    def warp(self, cta_index: int, warp_index: int) -> WarpTrace:
        """The trace of ``(cta_index, warp_index)`` (extracted on first use)."""
        key = (cta_index, warp_index)
        trace = self._warps.get(key)
        if trace is None:
            trace = WarpTrace(list(self._op_factory(cta_index, warp_index)))
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
