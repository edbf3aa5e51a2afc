"""Property-based tests (hypothesis) for core data structures and invariants."""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import multi_tenant_requests

from repro.core.config import CIAOParameters
from repro.core.interference import InterferenceDetector
from repro.gpu.coalescer import Coalescer
from repro.gpu.instruction import (
    GLOBAL_MEMORY_KINDS,
    KIND_CODE,
    SHARED_MEMORY_KINDS,
    WARP_LANES,
    InstructionKind,
)
from repro.gpu.vector.trace import KernelTrace
from repro.harness.reporting import geometric_mean
from repro.mem.address import BLOCK_SIZE, AddressMapping
from repro.mem.cache import AccessOutcome, Cache, CacheConfig
from repro.mem.hashing import ipoly_set_index, xor_set_index
from repro.mem.mshr import MSHRFile
from repro.mem.victim_tag_array import VTAConfig, VictimTagArray
from repro.workloads import benchmark_names, get_benchmark
from repro.workloads.synthetic import SyntheticKernelModel, isolate_address_space

addresses = st.integers(min_value=0, max_value=2**40 - 1)


@settings(max_examples=200)
@given(addresses, st.sampled_from([16, 32, 64, 128, 768]))
def test_set_index_always_in_range(address, num_sets):
    """Every hash maps every block into [0, num_sets)."""
    block = address // BLOCK_SIZE
    assert 0 <= xor_set_index(block, num_sets) < num_sets
    assert 0 <= ipoly_set_index(block, num_sets) < num_sets


@settings(max_examples=200)
@given(addresses)
def test_address_decomposition_is_consistent(address):
    """tag/set/offset are stable and the offset stays within the line."""
    mapping = AddressMapping(num_sets=32, line_size=128)
    tag, set_index, offset = mapping.decompose(address)
    assert 0 <= offset < 128
    assert 0 <= set_index < 32
    # Same block -> same tag and set regardless of the offset.
    tag2, set2, _ = mapping.decompose((address // 128) * 128)
    assert (tag, set_index) == (tag2, set2)


@settings(max_examples=50)
@given(st.lists(addresses, min_size=1, max_size=32))
def test_coalescer_covers_all_lanes_exactly(lanes):
    """Coalesced blocks cover every lane address and contain no duplicates."""
    coalescer = Coalescer()
    blocks = coalescer.coalesce(lanes)
    assert len(blocks) == len(set(blocks))
    assert {a // BLOCK_SIZE for a in lanes} == set(blocks)
    assert 1 <= len(blocks) <= len(lanes)


@settings(max_examples=50, deadline=None)
@given(st.lists(addresses, min_size=1, max_size=200), st.integers(0, 3))
def test_cache_never_exceeds_capacity_and_hits_after_fill(accesses, seed):
    """Occupancy never exceeds 1.0 and a filled block always hits next."""
    cache = Cache(CacheConfig(name="t", size_bytes=4096, associativity=4))
    rng = random.Random(seed)
    for address in accesses:
        result = cache.access(address, wid=rng.randrange(4), is_write=False, now=0)
        if result.outcome is AccessOutcome.MISS:
            cache.fill(result.block, 1)
            followup = cache.access(address, wid=0, is_write=False, now=2)
            assert followup.outcome is AccessOutcome.HIT
        assert 0.0 <= cache.occupancy() <= 1.0
    total = cache.stats.hits + cache.stats.misses
    assert total >= len(accesses)


@settings(max_examples=50)
@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 500), st.integers(0, 7)), max_size=200)
)
def test_vta_occupancy_bounded(events):
    """The per-warp victim tag sets never exceed their configured capacity."""
    vta = VictimTagArray(VTAConfig(entries_per_warp=8, num_warps=8))
    for owner, block, evictor in events:
        vta.record_eviction(owner, block, evictor)
        assert vta.occupancy(owner) <= 8


@settings(max_examples=50)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
def test_mshr_occupancy_and_merging_invariants(blocks):
    """MSHR occupancy stays bounded and merged entries keep one per block."""
    mshr = MSHRFile(num_entries=8, max_merged=4)
    for i, block in enumerate(blocks):
        mshr.allocate(block, i % 48)
        assert mshr.occupancy <= 8
        assert len(set(mshr.outstanding_blocks())) == mshr.occupancy


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.integers(0, 47), st.integers(0, 47)), min_size=1, max_size=500),
    st.integers(1, 100000),
    st.integers(1, 48),
)
def test_detector_irs_non_negative_and_counts_match(events, instructions, warps):
    """IRS is non-negative and cumulative counts equal the recorded events."""
    detector = InterferenceDetector(CIAOParameters.paper_defaults())
    for victim, aggressor in events:
        detector.record_vta_hit(victim, aggressor)
    total = sum(detector.vta_hit_counts.values())
    assert total == len(events)
    for victim, _ in events:
        assert detector.irs(victim, instructions, warps) >= 0.0
        entry = detector.interference_list[victim]
        assert 0 <= entry.counter <= detector.params.saturating_counter_max


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20))
def test_geometric_mean_bounds(values):
    """The geometric mean lies between the minimum and maximum value."""
    mean = geometric_mean(values)
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


# ---------------------------------------------------------------------------
# Multi-tenant invariants
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(multi_tenant_requests())
def test_multi_tenant_request_round_trips_for_random_partitions(request):
    """to_dict/from_dict is the identity for arbitrary valid partitions,
    simultaneous and staggered launches alike."""
    import json

    from repro.api import MultiTenantRequest

    request.validate()  # the strategy only builds valid partitions
    assert MultiTenantRequest.from_dict(request.to_dict()) == request
    wire = json.loads(json.dumps(request.to_dict()))
    assert MultiTenantRequest.from_dict(wire) == request


@functools.lru_cache(maxsize=None)
def _colocated_result(names=("alpha", "beta", "gamma")):
    """One small pinned co-located run, shared by the invariants below."""
    from repro.api import MultiTenantRequest, RunConfig, TenantSpec, execute

    benchmarks = ("ATAX", "SYRK", "WC")
    request = MultiTenantRequest(
        tenants=tuple(
            TenantSpec(name, benchmarks[i], "gto", (i,), address_space=i + 1)
            for i, name in enumerate(names)
        ),
        run_config=RunConfig(scale=0.05, seed=1),
    )
    return execute(request)


def test_per_tenant_counts_sum_to_global_totals():
    """Tenant instruction/conflict counts partition the machine totals, and
    the machine clock is the slowest tenant's finish cycle."""
    result = _colocated_result()
    per_tenant = result.per_tenant.values()
    assert sum(t.stats.instructions_issued for t in per_tenant) == (
        result.machine.instructions_issued
    )
    assert sum(t.stats.global_memory_instructions for t in per_tenant) == (
        result.machine.global_memory_instructions
    )
    assert sum(t.stats.warps_retired for t in per_tenant) == (
        result.machine.warps_retired
    )
    assert sum(t.inter_sm_dram_conflicts for t in per_tenant) == (
        result.inter_sm_dram_conflicts
    )
    assert max(t.finish_cycle for t in per_tenant) == result.machine.cycles
    assert max(t.stats.cycles for t in per_tenant) == result.machine.cycles


def test_tenant_results_invariant_under_label_permutation():
    """Renaming tenants (fixed SM assignment) only relabels the breakdown."""
    base = _colocated_result(("alpha", "beta", "gamma"))
    renamed = _colocated_result(("zeta", "yankee", "xray"))
    mapping = {"alpha": "zeta", "beta": "yankee", "gamma": "xray"}
    assert [s.cycles for s in base.per_sm] == [s.cycles for s in renamed.per_sm]
    assert base.per_sm == renamed.per_sm
    assert base.machine == renamed.machine
    assert base.inter_sm_dram_conflicts == renamed.inter_sm_dram_conflicts
    for old, new in mapping.items():
        a, b = base.per_tenant[old], renamed.per_tenant[new]
        assert a.stats == b.stats
        assert a.sm_ids == b.sm_ids
        assert a.finish_cycle == b.finish_cycle
        assert a.inter_sm_dram_conflicts == b.inter_sm_dram_conflicts


@settings(max_examples=100)
@given(addresses, st.sampled_from([16, 32, 64, 128, 768]))
def test_specialized_set_hashes_match_generic(address, num_sets):
    """specialize_set_hash closures are bit-identical to the generic hashes."""
    from repro.mem.hashing import (
        ipoly_set_index,
        linear_set_index,
        specialize_set_hash,
        xor_set_index,
    )

    block = address // BLOCK_SIZE
    for generic in (xor_set_index, linear_set_index, ipoly_set_index):
        specialized = specialize_set_hash(generic, num_sets)
        assert specialized(block) == generic(block, num_sets), (generic.__name__, num_sets)


@settings(deadline=None)
@given(
    st.sampled_from(benchmark_names()),
    st.floats(min_value=0.005, max_value=0.05),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)
def test_packed_trace_matches_reference_coalescer(name, scale, seed, colour, cta, warp):
    """A trace packed from ops equals the tables the reference path implies.

    The reference engine coalesces each global access's lane addresses and
    reads each scratchpad access's lane offsets; the trace packs the same
    warp straight from its ops into flat tables.  Every table must agree,
    including the instruction kinds, the latency-1 ALU run ends and the
    access ordinals, and every global access must have ``WARP_LANES`` lanes
    (the trace stores no lane count).
    """
    model = SyntheticKernelModel(get_benchmark(name), scale=scale, seed=seed)
    kernel = isolate_address_space(model.kernel_launch(), colour)
    cta %= kernel.num_ctas
    warp %= kernel.warps_per_cta
    packed = KernelTrace(kernel).warp(cta, warp)
    instructions = list(kernel.stream_factory(cta, warp, 0))
    coalescer = Coalescer()
    access_index, mem_starts, mem_flat, shared_offsets = [], [0], [], []
    for instruction in instructions:
        if instruction.kind in GLOBAL_MEMORY_KINDS:
            assert len(instruction.addresses) == WARP_LANES
            access_index.append(len(mem_starts) - 1)
            mem_flat.extend(coalescer.coalesce(instruction.addresses))
            mem_starts.append(len(mem_flat))
        elif instruction.kind in SHARED_MEMORY_KINDS:
            access_index.append(len(shared_offsets) // WARP_LANES)
            shared_offsets.extend(instruction.addresses)
        else:
            access_index.append(-1)
    sticky_end = []
    for position in range(len(instructions)):
        end = position
        while instructions[end].kind is InstructionKind.ALU and instructions[end].latency == 1:
            end += 1
        sticky_end.append(end)
    assert packed.kind_codes == bytes(KIND_CODE[i.kind] for i in instructions)
    assert [i.kind for i in packed.replay()] == [i.kind for i in instructions]
    assert list(packed.sticky_end) == sticky_end
    assert list(packed.access_index) == access_index
    assert list(packed.mem_starts) == mem_starts
    assert list(packed.mem_flat) == mem_flat
    assert list(packed.shared_offsets) == shared_offsets
