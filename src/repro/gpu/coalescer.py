"""Memory access coalescer.

A warp's global memory instruction carries up to 32 per-lane byte addresses.
The coalescer merges lanes that fall into the same 128-byte block into one
memory transaction, exactly as the hardware does.  The number of resulting
transactions (1 for a fully coalesced access, up to 32 for a fully divergent
one) is the quantity that actually loads the L1D, the MSHRs and the
downstream bandwidth, so the coalescer is where the workload models' access
patterns turn into cache pressure.
"""

from __future__ import annotations

from typing import Sequence

from repro.mem.address import BLOCK_SIZE


class Coalescer:
    """Merge per-lane addresses into unique 128-byte block transactions."""

    def coalesce(self, addresses: Sequence[int]) -> list[int]:
        """Return the ordered list of distinct blocks touched by ``addresses``.

        Order follows first appearance so that deterministic workloads produce
        deterministic transaction streams.
        """
        if not addresses:
            return []
        if min(addresses) < 0:
            raise ValueError("memory addresses must be non-negative")
        # dict.fromkeys dedups while preserving first-appearance order and
        # runs the whole merge at C speed (this is called once per memory
        # instruction with up to 32 lane addresses).
        return list(dict.fromkeys([address // BLOCK_SIZE for address in addresses]))

    @staticmethod
    def block_to_byte(block: int) -> int:
        """Base byte address of ``block``."""
        return block * BLOCK_SIZE
