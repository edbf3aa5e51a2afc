"""Cooperative Thread Arrays (CTAs) and kernel launches.

A :class:`KernelLaunch` describes everything an SM needs to start running a
workload: how many CTAs, how many warps per CTA, how much shared memory each
CTA allocates (the paper's ``Fsmem`` column in Table II), and a factory that
produces each warp's instruction stream.  A synthetic workload launch also
carries the same streams as compact ops, which the vector engine packs into
its trace tables without building an :class:`Instruction` per access.

A :class:`CTA` groups its warps for barrier semantics: a ``BARRIER``
instruction parks the issuing warp until every unfinished warp of the CTA
has arrived, then releases them all, matching CUDA ``__syncthreads``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.gpu.instruction import Instruction
from repro.gpu.warp import Warp

#: Factory signature: (cta_index, warp_index_within_cta, global_warp_id) -> stream.
WarpStreamFactory = Callable[[int, int, int], Iterator[Instruction]]

#: One warp instruction as a workload draws it: ``(kind code, payload)``, the
#: code from :data:`~repro.gpu.instruction.KIND_CODE`.  The payload of a
#: global access is the tuple of 128-byte block numbers it drew (duplicates
#: kept; lane ``i`` reads block ``i mod len``), of a scratchpad access its
#: per-lane byte offsets, and ``()`` otherwise.
WarpOp = tuple[int, tuple[int, ...]]

#: Op factory signature: (cta_index, warp_index_within_cta) -> ops.
WarpOpFactory = Callable[[int, int], Iterator[WarpOp]]


@dataclass
class KernelLaunch:
    """Parameters of one kernel launch on one SM."""

    name: str
    num_ctas: int
    warps_per_cta: int
    stream_factory: WarpStreamFactory
    shared_mem_per_cta: int = 0
    #: Optional hard cap on resident warps (used by tests; normally the SM
    #: enforces its own occupancy limits).
    max_resident_warps: Optional[int] = None
    #: Tenant label when the launch belongs to a co-located (multi-tenant)
    #: simulation; ``None`` for whole-GPU launches.
    tenant: Optional[str] = None
    #: The streams of ``stream_factory`` as ops, for launches that can be
    #: traced (synthetic workloads); ``None`` for hand-built streams.
    op_factory: Optional[WarpOpFactory] = None

    def total_warps(self) -> int:
        """Total warps launched across all CTAs."""
        return self.num_ctas * self.warps_per_cta

    def validate(self) -> None:
        """Sanity-check launch parameters."""
        if self.num_ctas <= 0 or self.warps_per_cta <= 0:
            raise ValueError("kernel must launch at least one CTA with one warp")
        if self.shared_mem_per_cta < 0:
            raise ValueError("shared memory per CTA cannot be negative")


@dataclass(slots=True)
class CTA:
    """One resident CTA and its barrier state.

    ``num_at_barrier`` counts the warps currently parked at the barrier so
    the SM's throttling check (`may a throttled warp ignore its throttle?`)
    is O(1) instead of a scan; warps cannot retire while parked, so a
    finished warp never contributes to the count.
    """

    cta_id: int
    warps: list[Warp] = field(default_factory=list)
    num_at_barrier: int = 0

    def add_warp(self, warp: Warp) -> None:
        """Attach a warp to this CTA."""
        self.warps.append(warp)

    # -- barrier handling ----------------------------------------------------
    def unfinished_warps(self) -> list[Warp]:
        """Warps of this CTA that have not retired."""
        return [w for w in self.warps if not w.finished]

    def arrive_at_barrier(self, warp: Warp) -> list[Warp]:
        """Mark ``warp`` as waiting at the CTA barrier.

        Returns the list of warps released (all of them once the last
        unfinished warp arrives, otherwise an empty list).
        """
        if not warp.at_barrier:
            warp.at_barrier = True
            self.num_at_barrier += 1
        waiting = self.unfinished_warps()
        if all(w.at_barrier for w in waiting):
            self._release(waiting)
            return waiting
        return []

    def release_if_unblocked(self) -> list[Warp]:
        """Re-check the barrier after a warp of this CTA retired.

        A warp that exits while its siblings wait at a barrier must not
        deadlock them; this mirrors the hardware behaviour where exited
        warps no longer participate in ``bar.sync``.
        """
        waiting = self.unfinished_warps()
        if waiting and all(w.at_barrier for w in waiting):
            self._release(waiting)
            return waiting
        return []

    def _release(self, waiting: list[Warp]) -> None:
        for w in waiting:
            if w.at_barrier:
                w.at_barrier = False
                self.num_at_barrier -= 1

    def is_finished(self) -> bool:
        """True when every warp of the CTA retired."""
        return all(w.finished for w in self.warps)
