"""Turn a :class:`BenchmarkSpec` into an executable kernel launch.

:class:`SyntheticKernelModel` generates, per warp, a deterministic
instruction stream matching the benchmark's model parameters: a mix of ALU
instructions, global loads/stores drawn from the benchmark's access-pattern
archetype, scratchpad accesses (for benchmarks with ``Fsmem > 0``) and CTA
barriers.

The stream is drawn once, as compact ops (:data:`repro.gpu.cta.WarpOp`):
a global access carries the block numbers its pattern drew, a scratchpad
access its lane offsets.  Both consumers read that one stream: the vector
engine packs its trace tables straight from the ops, and the reference
engine reads :func:`instruction_stream`, which expands each op into an
:class:`Instruction` with per-lane byte addresses
(:func:`~repro.workloads.patterns.lane_addresses`).

Address-space layout (byte addresses):

* each *logical* warp (CTA index x warps-per-CTA + warp index) owns a
  private reuse tile in the ``TILE_REGION`` and a private streaming range in
  the ``STREAM_REGION``, so tiles of different warps never alias by accident
  -- they only interact through cache capacity and set conflicts, which is
  exactly the interference the paper studies;
* every ``aggressor_period``-th warp is an *aggressor*: its tile is
  ``aggressor_factor`` times larger and a larger share of its accesses
  stream, so it causes many more evictions than it suffers.  This produces
  the strongly non-uniform interference of Figures 1a / 4a and gives the
  interference-aware schemes something to find.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import replace
from typing import Iterable, Iterator, Optional

from repro.gpu.cta import KernelLaunch, WarpOp
from repro.gpu.instruction import KIND_CODE, WARP_LANES, Instruction
from repro.mem.address import BLOCK_SIZE
from repro.workloads import patterns
from repro.workloads.spec import BenchmarkSpec, PatternKind

#: Base of the shared hot data region (the re-read vector / operand tile /
#: centroid array that every warp of the kernel keeps touching).
HOT_REGION = 0x0800_0000
#: Base of the per-warp reuse tiles.
TILE_REGION = 0x1000_0000
#: Bytes reserved per logical warp inside the tile region.
TILE_STRIDE = 1 << 20  # 1 MiB
#: Base of the per-warp streaming ranges.
STREAM_REGION = 0x4000_0000
#: Bytes reserved per logical warp inside the streaming region.
STREAM_STRIDE = 4 << 20  # 4 MiB
#: Fraction of global memory accesses that are stores.  Kept low: the
#: evaluated kernels are read-dominated (output vectors / reduced tiles),
#: and under the write-through/no-allocate L1D policy stores only consume
#: downstream bandwidth.
STORE_FRACTION = 0.05
#: Bytes separating tenant address spaces (see :func:`isolate_address_space`).
#: Far above every region base + per-warp stride, so two tenants' working
#: sets can never alias.
TENANT_ADDRESS_STRIDE = 1 << 40

(_C_ALU, _C_LOAD, _C_STORE, _C_SHARED_LOAD, _C_SHARED_STORE, _C_BARRIER, _C_EXIT) = (
    KIND_CODE.values()
)
_KINDS = tuple(KIND_CODE)
_ALU_OP: WarpOp = (_C_ALU, ())
_BARRIER_OP: WarpOp = (_C_BARRIER, ())
_EXIT_OP: WarpOp = (_C_EXIT, ())
#: The interned instruction of each payload-free op.
_INTERNED = {_C_ALU: Instruction.alu(), _C_BARRIER: Instruction.barrier(), _C_EXIT: Instruction.exit()}


def instruction_stream(ops: Iterable[WarpOp]) -> Iterator[Instruction]:
    """Expand ops into the reference engine's instructions, one per op."""
    for code, payload in ops:
        if code == _C_LOAD or code == _C_STORE:
            yield Instruction(_KINDS[code], patterns.lane_addresses(payload))
        elif payload:  # a scratchpad access's lane offsets
            yield Instruction(_KINDS[code], payload)
        else:
            yield _INTERNED[code]


def isolate_address_space(kernel: KernelLaunch, address_space: int) -> KernelLaunch:
    """Shift a synthetic launch's *global* accesses into a private space.

    Co-located tenants are separate processes: their virtual address spaces
    never alias, so one tenant's DRAM fills must not warm another tenant's
    L2 lines.  ``address_space`` is a small colour; colour 0 returns the
    launch unchanged (the kernel's natural addresses — what single-kernel
    launches and same-address-space tenants use), any other colour offsets
    every global LOAD / STORE by ``colour * TENANT_ADDRESS_STRIDE`` bytes,
    i.e. every drawn block number by that many blocks, in both the ops and
    the instruction view.  Scratchpad offsets, barriers and ALU
    instructions pass through untouched.
    """
    if address_space == 0:
        return kernel
    shift = address_space * TENANT_ADDRESS_STRIDE // BLOCK_SIZE
    ops = kernel.op_factory

    def shifted(cta_index: int, warp_index: int) -> Iterator[WarpOp]:
        for op in ops(cta_index, warp_index):
            code = op[0]
            if code == _C_LOAD or code == _C_STORE:
                yield (code, tuple([block + shift for block in op[1]]))
            else:
                yield op

    return replace(
        kernel,
        op_factory=shifted,
        stream_factory=lambda cta, warp, wid: instruction_stream(shifted(cta, warp)),
    )


class SyntheticKernelModel:
    """Instruction-stream generator for one benchmark at one scale."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        *,
        scale: float = 1.0,
        seed: int = 1,
        num_ctas: Optional[int] = None,
        warps_per_cta: Optional[int] = None,
    ) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        spec.validate()
        self.spec = spec
        self.scale = scale
        self.seed = seed
        self.num_ctas = num_ctas if num_ctas is not None else spec.num_ctas
        self.warps_per_cta = warps_per_cta if warps_per_cta is not None else spec.warps_per_cta
        if self.num_ctas <= 0 or self.warps_per_cta <= 0:
            raise ValueError("launch geometry must be positive")

    # ------------------------------------------------------------------
    @property
    def instructions_per_warp(self) -> int:
        """Scaled warp-instruction count per warp (at least 50)."""
        return max(50, int(self.spec.model.instructions_per_warp * self.scale))

    def kernel_launch(self) -> KernelLaunch:
        """Build the :class:`KernelLaunch` for this model."""
        return KernelLaunch(
            name=self.spec.name,
            num_ctas=self.num_ctas,
            warps_per_cta=self.warps_per_cta,
            stream_factory=self._warp_stream,
            shared_mem_per_cta=self.spec.shared_mem_per_cta(),
            op_factory=self._warp_ops,
        )

    # ------------------------------------------------------------------
    # Per-warp stream construction
    # ------------------------------------------------------------------
    def _logical_index(self, cta_index: int, warp_index: int) -> int:
        return cta_index * self.warps_per_cta + warp_index

    def _is_aggressor(self, logical_index: int) -> bool:
        period = max(1, self.spec.model.aggressor_period)
        return logical_index % period == period - 1

    def _tile_blocks(self, logical_index: int) -> int:
        model = self.spec.model
        blocks = max(2, int(model.tile_kb * 1024 / BLOCK_SIZE))
        if self._is_aggressor(logical_index):
            blocks = max(blocks + 1, int(blocks * model.aggressor_factor))
        # Never exceed the per-warp tile region.
        return min(blocks, TILE_STRIDE // BLOCK_SIZE)

    def _reuse_iterator(
        self, rng: random.Random, logical_index: int
    ) -> Iterator[tuple[int, ...]]:
        model = self.spec.model
        tile_base = (TILE_REGION + logical_index * TILE_STRIDE) // BLOCK_SIZE
        tile_blocks = self._tile_blocks(logical_index)
        if model.pattern in (PatternKind.LINEAR_ALGEBRA, PatternKind.TWO_PHASE):
            return patterns.tiled_reuse_accesses(
                tile_base,
                tile_blocks,
                chunk_blocks=model.chunk_blocks,
                chunk_repeats=model.chunk_repeats,
            )
        if model.pattern in (PatternKind.IRREGULAR, PatternKind.MAPREDUCE):
            return patterns.irregular_accesses(
                rng,
                tile_base,
                tile_blocks,
                blocks_per_access=model.divergence,
                hot_fraction=0.35,
                hot_blocks=max(4, tile_blocks // 4),
            )
        if model.pattern is PatternKind.STENCIL:
            row_blocks = max(2, model.chunk_blocks)
            num_rows = max(2, tile_blocks // row_blocks)
            return patterns.stencil_accesses(
                tile_base, row_blocks, num_rows, sweeps=model.chunk_repeats
            )
        raise ValueError(f"unhandled pattern {model.pattern}")

    def _stream_iterator(self, logical_index: int) -> Iterator[tuple[int, ...]]:
        stream_base = (STREAM_REGION + logical_index * STREAM_STRIDE) // BLOCK_SIZE
        stream_blocks = STREAM_STRIDE // BLOCK_SIZE // 4
        return patterns.streaming_accesses(stream_base, stream_blocks)

    def _hot_iterator(
        self, rng: random.Random, logical_index: int
    ) -> Optional[Iterator[tuple[int, ...]]]:
        """Cyclic sweep over the shared hot region, phase-shifted per warp."""
        model = self.spec.model
        hot_blocks = int(model.hot_kb * 1024 / BLOCK_SIZE)
        if hot_blocks <= 0:
            return None
        start_block = rng.randrange(hot_blocks)
        hot_base = HOT_REGION // BLOCK_SIZE
        if model.pattern in (PatternKind.IRREGULAR, PatternKind.MAPREDUCE):
            return patterns.irregular_accesses(
                rng,
                hot_base,
                hot_blocks,
                blocks_per_access=model.divergence,
                hot_fraction=0.25,
                hot_blocks=max(4, hot_blocks // 8),
            )
        return patterns.tiled_reuse_accesses(
            hot_base + start_block,
            hot_blocks,
            chunk_blocks=hot_blocks,
            chunk_repeats=1,
        )

    def _access_mix_for(self, logical_index: int) -> tuple[float, float]:
        """Return (stream_fraction, hot_fraction) for this warp.

        Aggressor warps stream far more and touch the shared hot structure
        less, so they are the warps whose insertions evict everyone else's
        hot data -- the concentrated, non-uniform interference of Figure 4.
        """
        model = self.spec.model
        stream = model.stream_fraction
        hot = model.hot_fraction
        if self._is_aggressor(logical_index):
            stream = min(1.0, stream + 0.35)
            hot = hot * 0.5
            if stream + hot > 1.0:
                hot = max(0.0, 1.0 - stream)
        return stream, hot

    def _warp_stream(self, cta_index: int, warp_index: int, wid: int) -> Iterator[Instruction]:
        """Yield the instruction stream of one warp (a view of its ops)."""
        return instruction_stream(self._warp_ops(cta_index, warp_index))

    def _warp_ops(self, cta_index: int, warp_index: int) -> Iterator[WarpOp]:
        """Yield the ops of one warp (deterministic per warp)."""
        model = self.spec.model
        logical_index = self._logical_index(cta_index, warp_index)
        # zlib.crc32 (not hash()) keys the per-warp RNG: str hashes are
        # randomized per process (PYTHONHASHSEED), which silently made every
        # simulation irreproducible across interpreter invocations — the
        # golden-stats fixtures and the on-disk result cache both require
        # process-independent streams.
        name_key = zlib.crc32(self.spec.name.encode("utf-8")) % (1 << 30)
        rng = random.Random((self.seed * 1_000_003) ^ (logical_index * 7919) ^ name_key)
        reuse_iter = self._reuse_iterator(rng, logical_index)
        stream_iter = self._stream_iterator(logical_index)
        hot_iter = self._hot_iterator(rng, logical_index)
        stream_fraction, hot_fraction = self._access_mix_for(logical_index)
        if hot_iter is None:
            hot_fraction = 0.0
        stream_or_hot = stream_fraction + hot_fraction
        total = self.instructions_per_warp
        barrier_interval = model.barrier_interval if self.spec.uses_barriers else 0
        scratch_bytes = max(128, self.spec.shared_mem_per_cta(), 1024)
        scratch_slots = max(1, scratch_bytes // 8)
        scratch_lanes: dict[int, tuple[int, ...]] = {}
        # A two-phase kernel switches to its second memory fraction here.
        split = model.phase_split * total if model.pattern is PatternKind.TWO_PHASE else total
        scratch_fraction = model.scratchpad_fraction
        draw_of = rng.random

        for emitted in range(total):
            if barrier_interval and emitted and emitted % barrier_interval == 0:
                yield _BARRIER_OP
                continue
            draw = draw_of()
            mem_fraction = model.mem_fraction if emitted < split else model.phase2_mem_fraction
            if draw < mem_fraction:
                source = draw_of()
                if source < stream_fraction:
                    blocks = next(stream_iter)
                elif source < stream_or_hot:
                    blocks = next(hot_iter)
                else:
                    blocks = next(reuse_iter)
                if draw_of() < STORE_FRACTION:
                    yield (_C_STORE, blocks)
                else:
                    yield (_C_LOAD, blocks)
            elif draw < mem_fraction + scratch_fraction:
                offset = rng.randrange(0, scratch_slots) * 8
                offsets = scratch_lanes.get(offset)
                if offsets is None:
                    offsets = tuple(
                        [(offset + lane * 8) % scratch_bytes for lane in range(WARP_LANES)]
                    )
                    scratch_lanes[offset] = offsets
                if draw_of() < 0.5:
                    yield (_C_SHARED_STORE, offsets)
                else:
                    yield (_C_SHARED_LOAD, offsets)
            else:
                yield _ALU_OP
        yield _EXIT_OP


def build_kernel(
    spec: BenchmarkSpec,
    *,
    scale: float = 1.0,
    seed: int = 1,
    num_ctas: Optional[int] = None,
    warps_per_cta: Optional[int] = None,
) -> KernelLaunch:
    """Convenience wrapper: build the kernel launch for ``spec`` directly."""
    model = SyntheticKernelModel(
        spec,
        scale=scale,
        seed=seed,
        num_ctas=num_ctas,
        warps_per_cta=warps_per_cta,
    )
    return model.kernel_launch()
