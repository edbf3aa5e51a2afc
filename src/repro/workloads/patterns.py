"""Reusable access-pattern building blocks for the workload models.

Every benchmark model composes a per-warp instruction stream out of a small
set of archetypal GPU memory behaviours:

* :func:`tiled_reuse_accesses` -- a warp repeatedly re-references a small
  chunk of its private tile before moving to the next chunk.  This is the
  "potential of data locality" the paper talks about: the re-references hit
  if nothing evicted the chunk in between, and produce VTA hits (detected
  lost locality) if another warp's accesses did.
* :func:`streaming_accesses` -- a warp walks a large array once, no reuse.
  Streaming warps are classic cache polluters.
* :func:`irregular_accesses` -- pseudo-random accesses within a footprint
  with a configurable number of blocks per instruction (memory divergence),
  modelling index-driven kernels such as KMN / Kmeans / II.
* :func:`stencil_accesses` -- neighbouring rows re-referenced a few times,
  modelling the Rodinia stencil codes (Hotspot, NW, 2DCONV).

All helpers take and yield 128-byte *block numbers*: one tuple per memory
instruction, holding one block for a coalesced access and the drawn blocks
(duplicates kept) for a divergent one.  They are deterministic given their
``random.Random`` instance.  :func:`lane_addresses` expands a tuple into the
instruction's per-lane byte addresses.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from repro.gpu.instruction import WARP_LANES
from repro.mem.address import BLOCK_SIZE

#: Byte offset of each lane's word within its block (4-byte words).
_LANE_OFFSETS = tuple(lane * BLOCK_SIZE // WARP_LANES % BLOCK_SIZE for lane in range(WARP_LANES))


def lane_addresses(blocks: Sequence[int]) -> tuple[int, ...]:
    """Per-lane byte addresses of one access to ``blocks``.

    Lane ``i`` reads word ``i`` of block ``blocks[i % len(blocks)]``, so a
    one-block access is fully coalesced and a ``k``-block access spreads
    over exactly its ``k`` blocks (memory divergence).
    """
    count = len(blocks)
    if not 1 <= count <= WARP_LANES:
        raise ValueError(f"an access touches 1..{WARP_LANES} blocks, not {count}")
    return tuple(
        [blocks[lane % count] * BLOCK_SIZE + offset for lane, offset in enumerate(_LANE_OFFSETS)]
    )


def tiled_reuse_accesses(
    tile_base: int,
    tile_blocks: int,
    *,
    chunk_blocks: int = 4,
    chunk_repeats: int = 3,
) -> Iterator[tuple[int, ...]]:
    """Yield accesses over a tile with short-reuse-distance chunks.

    The tile (``tile_blocks`` blocks starting at block ``tile_base``) is
    walked chunk by chunk; each chunk of ``chunk_blocks`` blocks is swept
    ``chunk_repeats`` times before moving on, then the walk wraps around the
    tile forever.  Reuse distance within a chunk is at most ``chunk_blocks``
    blocks, well inside the 8-entry victim tag array, so lost locality is
    detectable exactly as in the real hardware.
    """
    if tile_blocks <= 0:
        raise ValueError("tile must contain at least one block")
    chunk_blocks = max(1, min(chunk_blocks, tile_blocks))
    chunk_starts = list(range(0, tile_blocks, chunk_blocks))
    while True:
        for start in chunk_starts:
            chunk = [(tile_base + (start + offset) % tile_blocks,) for offset in range(chunk_blocks)]
            for _ in range(max(1, chunk_repeats)):
                yield from chunk


def streaming_accesses(
    base: int, length_blocks: int, *, stride_blocks: int = 1
) -> Iterator[tuple[int, ...]]:
    """Yield a single pass over ``length_blocks`` blocks, then wrap.

    Streaming data is touched once per pass, so it has no reuse of its own
    but steadily evicts other warps' data.
    """
    if length_blocks <= 0:
        raise ValueError("stream must cover at least one block")
    index = 0
    while True:
        yield (base + (index % length_blocks) * stride_blocks,)
        index += 1


def irregular_accesses(
    rng: random.Random,
    base: int,
    footprint_blocks: int,
    *,
    blocks_per_access: int = 2,
    hot_fraction: float = 0.2,
    hot_blocks: int = 32,
) -> Iterator[tuple[int, ...]]:
    """Yield divergent, pseudo-random accesses within a footprint.

    ``hot_fraction`` of the accesses go to a small hot region (the index /
    centroid arrays of KMN / Kmeans), the rest are spread over the whole
    footprint.  Each access draws ``blocks_per_access`` blocks (1..32, one
    per lane group), modelling intra-warp memory divergence; two draws may
    land on the same block.
    """
    if footprint_blocks <= 0:
        raise ValueError("footprint must contain at least one block")
    if not 1 <= blocks_per_access <= WARP_LANES:
        raise ValueError(f"blocks_per_access must be within 1..{WARP_LANES}")
    hot_blocks = max(1, min(hot_blocks, footprint_blocks))
    draw, randrange = rng.random, rng.randrange
    while True:
        yield tuple(
            [
                base + (randrange(hot_blocks) if draw() < hot_fraction else randrange(footprint_blocks))
                for _ in range(blocks_per_access)
            ]
        )


def stencil_accesses(
    base: int,
    row_blocks: int,
    num_rows: int,
    *,
    halo_rows: int = 1,
    sweeps: int = 4,
) -> Iterator[tuple[int, ...]]:
    """Yield a stencil sweep: each row plus its halo neighbours, repeatedly.

    Models the Rodinia stencil kernels (Hotspot, NW, 2DCONV): a warp works
    on one row segment at a time, touching the rows above/below, and the
    whole assigned region is swept ``sweeps`` times (time steps), giving
    moderate, well-structured reuse.
    """
    if row_blocks <= 0 or num_rows <= 0:
        raise ValueError("stencil needs a positive region")
    while True:
        for _ in range(max(1, sweeps)):
            for row in range(num_rows):
                for col in range(row_blocks):
                    for neighbour in range(-halo_rows, halo_rows + 1):
                        target_row = min(num_rows - 1, max(0, row + neighbour))
                        yield (base + target_row * row_blocks + col,)
