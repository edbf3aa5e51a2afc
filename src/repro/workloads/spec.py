"""Benchmark specification dataclasses.

:class:`BenchmarkSpec` couples the facts the paper reports in Table II
(suite, APKI, input size, best static warp limit ``Nwrp``, shared-memory
fraction ``Fsmem``, barrier usage, working-set class) with the parameters of
our synthetic model of the benchmark (:class:`ModelParams`).

The model parameters are chosen per benchmark so that the *aggregate* cache
behaviour matches what the class labels imply on a 16 KB L1D shared by up to
48 warps:

* **LWS** (large working set): per-warp reuse tiles of a few KB -- a handful
  of warps fit in the L1D (hence the small ``Nwrp``), all 48 thrash even the
  combined L1D + shared-memory capacity.
* **SWS** (small working set): ~1 KB tiles -- 48 warps overflow the 16 KB
  L1D but fit comfortably once CIAO spreads them over L1D + unused shared
  memory.
* **CI** (compute intensive): few memory instructions and small tiles; TLP,
  not cache capacity, limits performance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.gpu.instruction import WARP_LANES


class WorkloadClass(enum.Enum):
    """Working-set classification used throughout the evaluation."""

    LWS = "large-working-set"
    SWS = "small-working-set"
    CI = "compute-intensive"


class PatternKind(enum.Enum):
    """Top-level access-pattern archetype of a benchmark model."""

    LINEAR_ALGEBRA = "linear-algebra"     # streaming rows + hot reused tiles/vectors
    IRREGULAR = "irregular"               # index-driven divergent accesses
    MAPREDUCE = "mapreduce"               # hashed/keyed accesses + scratchpad use
    STENCIL = "stencil"                   # neighbour sweeps with moderate reuse
    TWO_PHASE = "two-phase"               # memory-intensive phase then compute phase


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the synthetic per-warp instruction stream."""

    pattern: PatternKind = PatternKind.LINEAR_ALGEBRA
    #: Warp instructions per warp at scale 1.0.
    instructions_per_warp: int = 2000
    #: Fraction of instructions that are global memory accesses.
    mem_fraction: float = 0.30
    #: Per-warp reuse tile size in KiB.
    tile_kb: float = 1.0
    #: Blocks per reuse chunk (reuse distance; keep within the 8-entry VTA).
    chunk_blocks: int = 4
    #: Times each chunk is swept before moving on.
    chunk_repeats: int = 3
    #: Size of the *shared* hot data structure in KiB (the re-read vector /
    #: operand tile / centroid array all warps of the kernel keep touching).
    #: This is the data whose locality the schedulers fight over: it fits the
    #: L1D when protected and is worth protecting because every warp hits on
    #: it simultaneously.  0 disables the shared hot region.
    hot_kb: float = 0.0
    #: Fraction of memory accesses that go to the shared hot region.
    hot_fraction: float = 0.0
    #: Fraction of memory accesses that stream over a large array (no reuse).
    stream_fraction: float = 0.2
    #: Every ``aggressor_period``-th warp is an aggressor ...
    aggressor_period: int = 4
    #: ... whose tile is this many times larger (more evictions caused).
    aggressor_factor: float = 3.0
    #: Blocks drawn per irregular access (memory divergence), 1..32: lane
    #: ``i`` reads the ``i mod divergence``-th drawn block.
    divergence: int = 1
    #: Warp instructions between CTA barriers (0 = no barriers).
    barrier_interval: int = 0
    #: Fraction of instructions that access the program-managed scratchpad.
    scratchpad_fraction: float = 0.0
    #: For TWO_PHASE: fraction of instructions in the memory-intensive phase.
    phase_split: float = 0.6
    #: For TWO_PHASE: memory fraction of the second (compute) phase.
    phase2_mem_fraction: float = 0.05


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of Table II plus the synthetic model of the benchmark."""

    name: str
    suite: str
    workload_class: WorkloadClass
    apki: int
    input_size: str
    nwrp: int                 # best static wavefront limit (Best-SWL profile)
    fsmem: float              # fraction of shared memory used by the program
    uses_barriers: bool
    description: str
    model: ModelParams = field(default_factory=ModelParams)

    #: Launch geometry: warps per CTA and number of CTAs (defaults give the
    #: canonical 48 resident warps per SM).
    warps_per_cta: int = 8
    num_ctas: int = 6

    def total_warps(self) -> int:
        """Warps launched per SM."""
        return self.warps_per_cta * self.num_ctas

    def shared_mem_per_cta(self, shared_capacity_bytes: int = 48 * 1024) -> int:
        """Scratchpad bytes each CTA allocates (Table II's Fsmem split evenly)."""
        total = int(self.fsmem * shared_capacity_bytes)
        if self.num_ctas == 0:
            return 0
        per_cta = total // self.num_ctas
        # Keep allocations 128-byte aligned like real CUDA allocations.
        return (per_cta // 128) * 128

    def validate(self) -> None:
        """Sanity-check the Table II facts and model parameters."""
        if self.apki < 0:
            raise ValueError("APKI cannot be negative")
        if not 0 <= self.fsmem <= 1:
            raise ValueError("Fsmem must be a fraction")
        if self.nwrp <= 0:
            raise ValueError("Nwrp must be positive")
        if self.warps_per_cta <= 0 or self.num_ctas <= 0:
            raise ValueError("launch geometry must be positive")
        if not 0 <= self.model.mem_fraction <= 1:
            raise ValueError("mem_fraction must be a fraction")
        if not 0 <= self.model.stream_fraction <= 1:
            raise ValueError("stream_fraction must be a fraction")
        if not 1 <= self.model.divergence <= WARP_LANES:
            raise ValueError(f"divergence must be within 1..{WARP_LANES} blocks")
