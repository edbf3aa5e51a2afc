"""Workload trace extraction and interning for the vector engine.

The reference engine consumes each warp's instruction stream lazily from a
Python generator (RNG draws, pattern iterators and ``Instruction``
construction interleaved with simulation).  The vector engine instead
*extracts* each warp's stream exactly once into parallel arrays:

* ``kinds`` / ``latencies`` — per-instruction kind codes and ALU latencies;
* ``sticky_end`` — for every instruction index, the first index at or after
  it that ends a run of latency-1 ALU instructions (the unit of the
  engine's batched issue);
* a CSR layout of the *pre-coalesced* memory transactions: per memory
  instruction, the distinct 128-byte blocks in first-appearance order
  (exactly ``Coalescer.coalesce``'s output) plus the lane count, so the
  per-issue coalescing dictionary work disappears;
* per-cache-geometry set indices for every transaction, computed with a
  vectorised XOR fold over the whole block array (one numpy pass instead of
  one scalar hash per probe).

Extraction replays the *same* generator the reference engine would consume,
so the arrays are bit-faithful by construction; the cost is paid once per
kernel identity and interned in a small LRU (:func:`kernel_trace_for_model`),
so every request over that kernel in the process shares it.

Traces are keyed by everything the stream depends on — benchmark spec,
scale, seed and launch geometry — and deliberately *not* by the machine
configuration: the same trace serves every cache geometry, with per-geometry
set indices computed (and memoised) on first use.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Callable, Optional

import numpy as np

from repro.gpu.cta import KernelLaunch
from repro.gpu.instruction import Instruction, InstructionKind
from repro.mem.address import BLOCK_SIZE, is_power_of_two

#: Compact instruction-kind codes used by the trace arrays.
KIND_CODE = {
    InstructionKind.ALU: 0,
    InstructionKind.LOAD: 1,
    InstructionKind.STORE: 2,
    InstructionKind.SHARED_LOAD: 3,
    InstructionKind.SHARED_STORE: 4,
    InstructionKind.BARRIER: 5,
    InstructionKind.EXIT: 6,
}

K_ALU = KIND_CODE[InstructionKind.ALU]
K_LOAD = KIND_CODE[InstructionKind.LOAD]
K_STORE = KIND_CODE[InstructionKind.STORE]
K_SHARED_LOAD = KIND_CODE[InstructionKind.SHARED_LOAD]
K_SHARED_STORE = KIND_CODE[InstructionKind.SHARED_STORE]


def vector_set_indices(blocks: np.ndarray, num_sets: int, set_hash: str) -> np.ndarray:
    """Set index of every block in ``blocks`` for a cache geometry.

    Vectorised equivalents of :mod:`repro.mem.hashing` — ``xor`` folds every
    ``log2(num_sets)``-bit slice of the block number together; ``linear`` is
    the conventional modulo mapping.  Unknown hashes fall back to the scalar
    registry function so exotic geometries stay correct, just not fast.
    """
    if blocks.size == 0:
        return np.empty(0, dtype=np.int64)
    if set_hash == "xor":
        if is_power_of_two(num_sets):
            bits = int(num_sets).bit_length() - 1
            mask = num_sets - 1
        else:
            bits = int(num_sets).bit_length()
            mask = (1 << bits) - 1
        index = np.zeros_like(blocks)
        remaining = blocks.copy()
        if bits > 0:
            while remaining.any():
                index ^= remaining & mask
                remaining >>= bits
        if not is_power_of_two(num_sets):
            index %= num_sets
        return index
    if set_hash == "linear":
        return blocks % num_sets
    from repro.mem.hashing import get_set_hash

    fn = get_set_hash(set_hash)
    return np.array([fn(int(b), num_sets) for b in blocks], dtype=np.int64)


class WarpTrace:
    """One warp's fully-extracted instruction stream (see module docstring)."""

    __slots__ = (
        "instructions",
        "kinds",
        "kind_codes",
        "sticky_end",
        "mem_index",
        "mem_blocks",
        "mem_lanes",
        "shared_index",
        "shared_addrs",
        "_mem_flat",
        "_mem_starts",
        "_sets_by_geometry",
        "_shared_costs",
    )

    def __init__(self, instructions: list[Instruction]) -> None:
        if not instructions or instructions[-1].kind is not InstructionKind.EXIT:
            # The reference engine synthesises EXIT when a stream runs dry;
            # making it explicit here is behaviourally identical (peek()
            # hands out the same interned singleton) and guarantees the
            # arrays cover every index the engine can reach.
            instructions = [*instructions, Instruction.exit()]
        self.instructions = instructions
        n = len(instructions)
        kinds = np.fromiter(
            (KIND_CODE[i.kind] for i in instructions), dtype=np.int8, count=n
        )
        latencies = np.fromiter(
            (i.latency for i in instructions), dtype=np.int32, count=n
        )
        self.kinds = kinds

        # -- batched-issue run structure ---------------------------------
        sticky = (kinds == K_ALU) & (latencies == 1)
        positions = np.arange(n, dtype=np.int64)
        boundary = np.where(~sticky, positions, n)
        # Scalar per-issue lookups run on plain lists (faster than numpy
        # item access); the arrays above exist to compute them in bulk.
        self.sticky_end = np.minimum.accumulate(boundary[::-1])[::-1].tolist()
        self.kind_codes = kinds.tolist()

        # -- pre-coalesced memory transactions (CSR) ---------------------
        mem_mask = (kinds == K_LOAD) | (kinds == K_STORE)
        mem_positions = np.flatnonzero(mem_mask)
        mem_index_arr = np.full(n, -1, dtype=np.int32)
        mem_index_arr[mem_positions] = np.arange(len(mem_positions), dtype=np.int32)
        self.mem_index = mem_index_arr.tolist()
        blocks_per_instr: list[tuple[int, ...]] = []
        lanes: list[int] = []
        for position in mem_positions:
            addresses = instructions[position].addresses
            if min(addresses) < 0:
                raise ValueError("memory addresses must be non-negative")
            blocks_per_instr.append(
                tuple(dict.fromkeys([a // BLOCK_SIZE for a in addresses]))
            )
            lanes.append(len(addresses))
        self.mem_blocks = blocks_per_instr
        self.mem_lanes = lanes
        counts = [len(b) for b in blocks_per_instr]
        self._mem_starts = np.concatenate(
            ([0], np.cumsum(counts, dtype=np.int64))
        )
        self._mem_flat = np.fromiter(
            (b for blocks in blocks_per_instr for b in blocks),
            dtype=np.int64,
            count=int(self._mem_starts[-1]),
        )
        self._sets_by_geometry: dict[tuple, list[tuple[int, ...]]] = {}

        # -- scratchpad accesses (cost precomputed per CTA allocation) ---
        shared_mask = (kinds == K_SHARED_LOAD) | (kinds == K_SHARED_STORE)
        shared_positions = np.flatnonzero(shared_mask)
        shared_index_arr = np.full(n, -1, dtype=np.int32)
        shared_index_arr[shared_positions] = np.arange(
            len(shared_positions), dtype=np.int32
        )
        self.shared_index = shared_index_arr.tolist()
        self.shared_addrs = [
            instructions[position].addresses for position in shared_positions
        ]
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
        (for the utilisation statistic).  Computed vectorised over all the
        warp's scratchpad instructions, memoised per ``(base, limit)`` —
        allocations are stable while a CTA is resident, so the engine looks
        the table up once at admission.
        """
        key = (base, limit, bank_width, num_banks)
        cached = self._shared_costs.get(key)
        if cached is not None:
            return cached
        costs: list[tuple[int, tuple[int, ...]]] = []
        addrs = self.shared_addrs
        if addrs:
            modulo = limit if limit > 1 else 1
            row_bytes = bank_width * num_banks
            lane_counts = {len(a) for a in addrs}
            if len(lane_counts) == 1:
                matrix = np.asarray(addrs, dtype=np.int64)
                offsets = base + (matrix % modulo)
                banks = (offsets // bank_width) % num_banks
                n = matrix.shape[0]
                per_bank = np.zeros((n, num_banks), dtype=np.int32)
                np.add.at(
                    per_bank,
                    (np.repeat(np.arange(n), matrix.shape[1]), banks.ravel()),
                    1,
                )
                cycles = per_bank.max(axis=1).tolist()
                rows = (offsets // row_bytes).tolist()
                costs = [
                    (int(cycles[i]), tuple(set(rows[i]))) for i in range(n)
                ]
            else:  # ragged lane counts: scalar fallback, same arithmetic
                for lanes in addrs:
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

        Computed once per geometry with one vectorised pass over the flat
        transaction array, then split back into per-instruction tuples
        aligned with :attr:`mem_blocks`.
        """
        cached = self._sets_by_geometry.get(geometry)
        if cached is not None:
            return cached
        num_sets, set_hash = geometry
        flat = vector_set_indices(self._mem_flat, num_sets, set_hash).tolist()
        starts = self._mem_starts.tolist()
        sets = [
            tuple(flat[starts[i]:starts[i + 1]])
            for i in range(len(self.mem_blocks))
        ]
        self._sets_by_geometry[geometry] = sets
        return sets


class KernelTrace:
    """Lazily-extracted per-(CTA, warp) traces of one kernel launch.

    Extraction runs the launch's own ``stream_factory`` — the exact
    generator the reference engine would consume — so replay is bit-faithful.
    Streams are extracted on first use (a cycle-budget-truncated run never
    pays for warps it does not admit) and memoised for the lifetime of the
    trace, which the intern cache shares across requests.

    The vector backend only materialises synthetic workload kernels, whose
    streams depend on ``(cta_index, warp_index)`` but not on the physical
    warp slot; extraction passes slot 0 and the engine replays the trace on
    whatever slot the admission logic assigns (matching the reference
    engine, where the slot does not influence the stream either).
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
