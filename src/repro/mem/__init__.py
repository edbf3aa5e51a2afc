"""Memory-hierarchy substrate for the CIAO reproduction.

This subpackage re-implements, in Python, the on-chip and off-chip memory
structures the paper depends on (and which GPGPU-Sim provides for the
original work):

* :mod:`repro.mem.address` -- address decomposition into tag / set / offset.
* :mod:`repro.mem.hashing` -- XOR-based set-index hashing [Nugteren et al.].
* :mod:`repro.mem.tag_array` -- generic set-associative tag array with
  pluggable replacement.
* :mod:`repro.mem.cache` -- L1D / L2 data caches with write policies and
  per-warp ownership tracking.
* :mod:`repro.mem.victim_tag_array` -- the per-warp Victim Tag Array used by
  CCWS and by CIAO's interference detector.
* :mod:`repro.mem.mshr` -- miss status holding registers with per-block
  request merging.
* :mod:`repro.mem.shared_memory` -- banked shared memory and the Shared
  Memory Management Table (SMMT).
* :mod:`repro.mem.shared_cache` -- the unused-shared-memory-as-cache
  structure (address translation unit, tag/data bank layout, direct-mapped
  lookup) introduced by CIAO.
* :mod:`repro.mem.dram` -- GDDR5-like latency/bandwidth model.
* :mod:`repro.mem.interconnect` -- SM <-> L2 interconnect and the L2 slice.
* :mod:`repro.mem.subsystem` -- glue object combining L2 + DRAM shared by
  all SMs.
"""

from repro.mem.address import AddressMapping, BLOCK_SIZE
from repro.mem.hashing import linear_set_index, xor_set_index, ipoly_set_index
from repro.mem.tag_array import TagArray, ReplacementPolicy
from repro.mem.cache import Cache, CacheConfig, AccessResult, AccessOutcome, WritePolicy
from repro.mem.victim_tag_array import VictimTagArray, VTAConfig, VTAHit
from repro.mem.mshr import MSHRFile, MSHREntry
from repro.mem.shared_memory import SharedMemory, SharedMemoryManagementTable, SMMTEntry
from repro.mem.shared_cache import SharedMemoryCache, AddressTranslationUnit, TranslatedAddress
from repro.mem.dram import DRAMModel, DRAMConfig
from repro.mem.interconnect import Interconnect, L2Slice
from repro.mem.subsystem import MemorySubsystem

__all__ = [
    "AddressMapping",
    "BLOCK_SIZE",
    "linear_set_index",
    "xor_set_index",
    "ipoly_set_index",
    "TagArray",
    "ReplacementPolicy",
    "Cache",
    "CacheConfig",
    "AccessResult",
    "AccessOutcome",
    "WritePolicy",
    "VictimTagArray",
    "VTAConfig",
    "VTAHit",
    "MSHRFile",
    "MSHREntry",
    "SharedMemory",
    "SharedMemoryManagementTable",
    "SMMTEntry",
    "SharedMemoryCache",
    "AddressTranslationUnit",
    "TranslatedAddress",
    "DRAMModel",
    "DRAMConfig",
    "Interconnect",
    "L2Slice",
    "MemorySubsystem",
]
