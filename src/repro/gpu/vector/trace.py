"""Workload trace extraction and interning for the vector engine.

The reference engine consumes each warp's instruction stream lazily from a
Python generator (RNG draws, pattern iterators and ``Instruction``
construction interleaved with simulation).  The vector engine instead
*packs* each warp's stream exactly once into flat stdlib tables — ``bytes``
and ``array`` only, so the packed tables hold no per-instruction or
per-access Python object:

* ``kind_codes`` — per-instruction kind codes (``bytes``).  Replay yields
  ``REPLAYED[code]`` for each (:meth:`WarpTrace.replay`);
* ``sticky_end`` — for every instruction index, the first index at or after
  it that ends a run of latency-1 ALU instructions (the unit of the
  engine's batched issue);
* ``access_index`` — each global or scratchpad access's ordinal among the
  accesses of its class, indexing the tables below;
* the *pre-coalesced* memory transactions of the global loads and stores:
  ``mem_flat`` holds every access's distinct 128-byte blocks in
  first-appearance order (exactly ``Coalescer.coalesce``'s output over the
  lane addresses) back to back, and access ``k`` owns
  ``mem_flat[mem_starts[k]:mem_starts[k + 1]]``.  Every access has
  ``WARP_LANES`` lanes, so no lane count is stored;
* ``shared_offsets`` — the per-lane offsets of every scratchpad access,
  ``WARP_LANES`` entries each;
* per-cache-geometry set indices, one per ``mem_flat`` entry, computed once
  with the same set hash the cache applies per probe.

Packing reads the launch's ops (:data:`repro.gpu.cta.WarpOp`): the stream
the workload generator draws, of which the reference engine's instructions
are a lane-expanded view.  A global op already carries its drawn block
numbers, so no per-lane address or :class:`Instruction` is built for an
access; the replayed instruction of an access is a shared per-kind
stand-in (:data:`REPLAYED`).  The cost is paid once per kernel identity
and interned in a small LRU (:func:`kernel_trace_for_model`), so every
request over that kernel in the process shares it — single-kernel requests
and co-located tenants alike.

Traces are keyed by everything the stream depends on — benchmark spec,
scale, seed, launch geometry and address colour — and deliberately *not* by
the machine configuration: the same trace serves every cache geometry, with
per-geometry set indices computed (and memoised) on first use.
"""

from __future__ import annotations

import json
from array import array
from collections import OrderedDict
from typing import Iterator, Optional

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
        "kind_codes",
        "sticky_end",
        "access_index",
        "mem_starts",
        "mem_flat",
        "shared_offsets",
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
        mem_starts = [0]
        mem_flat: list[int] = []
        shared_offsets: list[int] = []
        shared_count = 0
        run_start = 0
        for position, (code, payload) in enumerate(ops):
            if code == _C_ALU:
                continue
            if run_start < position:
                sticky_end[run_start:position] = [position] * (position - run_start)
            run_start = position + 1
            if code <= _C_STORE:
                access_index[position] = len(mem_starts) - 1
                # Lanes cycle over the drawn blocks, so the coalescer's
                # distinct blocks are the draws, deduplicated in
                # first-appearance order.
                mem_flat += payload if len(payload) == 1 else dict.fromkeys(payload)
                mem_starts.append(len(mem_flat))
            elif code <= _C_SHARED_STORE:
                if len(payload) != WARP_LANES:
                    raise ValueError(
                        f"a scratchpad access has {WARP_LANES} lane offsets, "
                        f"not {len(payload)}"
                    )
                access_index[position] = shared_count
                shared_count += 1
                shared_offsets += payload
        self.kind_codes = codes
        # Both tables hold instruction indices (or -1): 16-bit entries
        # whenever the stream is short enough.
        index_type = "h" if n <= 0x7FFF else "i"
        self.sticky_end = array(index_type, sticky_end)
        self.access_index = array(index_type, access_index)
        self.mem_starts = array("i", mem_starts)
        self.mem_flat = array("q", mem_flat)
        self.shared_offsets = array("i", shared_offsets)
        self._sets_by_geometry: dict[tuple, array] = {}
        self._shared_costs: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}

    def __len__(self) -> int:
        return len(self.kind_codes)

    def replay(self) -> Iterator[Instruction]:
        """The instructions the trace replays, one per kind code."""
        return map(REPLAYED.__getitem__, self.kind_codes)

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
        flat = self.shared_offsets
        costs: list[tuple[int, tuple[int, ...]]] = []
        for start in range(0, len(flat), WARP_LANES):
            offsets = [base + (a % modulo) for a in flat[start : start + WARP_LANES]]
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

    def sets_for_geometry(self, geometry: tuple) -> array:
        """Set indices of every block in :attr:`mem_flat` for ``(num_sets, set_hash)``.

        Computed once per geometry with the cache's own set hash (see
        :mod:`repro.mem.hashing`): one unsigned 16-bit entry per block, or a
        32-bit one when the indices do not fit.
        """
        cached = self._sets_by_geometry.get(geometry)
        if cached is not None:
            return cached
        num_sets, set_hash = geometry
        index_of = specialize_set_hash(get_set_hash(set_hash), num_sets)
        sets = array("H" if num_sets <= 1 << 16 else "i", map(index_of, self.mem_flat))
        self._sets_by_geometry[geometry] = sets
        return sets


class KernelTrace:
    """Lazily-extracted per-(CTA, warp) traces of one kernel launch.

    Extraction packs the launch's ``op_factory`` — the ops its
    ``stream_factory``, the reference engine's input, expands — so replay
    is bit-faithful.  Streams are extracted on first use (a
    cycle-budget-truncated run never pays for warps it does not admit) and
    memoised for the lifetime of the trace, which the intern cache shares
    across requests: every SM of a single-kernel job, every SM of a
    co-located tenant, and every later job over the same kernel identity.

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
#: Maximum number of distinct kernel identities kept extracted.  Sized so
#: that one round of the co-location library (26 tenant identities: a
#: benchmark at an address colour) survives into the next round; a figure
#: touches fewer.  Eviction is LRU and only costs re-extraction.
TRACE_CACHE_CAPACITY = 32

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
    address_space: int = 0,
) -> KernelTrace:
    """Interned :class:`KernelTrace` for a ``SyntheticKernelModel``.

    The intern key covers everything the streams depend on: the full
    benchmark spec (model parameters included), scale, seed, the resolved
    launch geometry and the tenant's address colour
    (:func:`~repro.workloads.synthetic.isolate_address_space`; colour 0, the
    kernel's natural addresses, is what single-kernel requests use).
    ``kernel`` is the launch to trace when the caller already has it, so it
    must already be in that colour.
    """
    from repro.api import encode_value

    identity = {
        "spec": encode_value(model.spec),
        "scale": model.scale,
        "seed": model.seed,
        "num_ctas": model.num_ctas,
        "warps_per_cta": model.warps_per_cta,
    }
    if address_space:
        identity["address_space"] = address_space
    key = json.dumps(identity, sort_keys=True)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        _TRACE_CACHE.move_to_end(key)
        return trace
    if kernel is None:
        from repro.workloads.synthetic import isolate_address_space

        kernel = isolate_address_space(model.kernel_launch(), address_space)
    trace = KernelTrace(kernel)
    _TRACE_CACHE[key] = trace
    while len(_TRACE_CACHE) > TRACE_CACHE_CAPACITY:
        _TRACE_CACHE.popitem(last=False)
    return trace
