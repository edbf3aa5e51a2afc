"""The ``vector`` backend: golden parity, availability gating, machinery.

The engine's one non-negotiable contract is **bit-identical output**: every
entry of ``tests/goldens/golden_stats.json`` — all schedulers, both pinned
engines — must be reproduced exactly by the vector backend (only the
``backend`` label may differ).  On top of the golden matrix, targeted parity
cases cover the configurations the fixtures do not: Figure 12 machine
variants, launch-geometry overrides, multi-SM machines, cycle-budget
truncation and non-unit issue width (which disables batching entirely).

Availability is registry-level: an engine that cannot run here (the
``chaos`` wrapper without a fault plan) is still listed, and only
*selecting* it raises :class:`repro.backends.BackendUnavailableError`.
"""

import json
from pathlib import Path

import pytest

from repro.api import RunConfig, SimulationRequest, execute
from repro.backends import (
    BackendUnavailableError,
    backend_availability,
    backend_names,
    get_backend,
    resolve_backend_name,
)
from repro.gpu.config import GPUConfig
from repro.gpu.vector.trace import clear_trace_cache, trace_cache_info

GOLDEN_PATH = Path(__file__).parent / "goldens" / "golden_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _normalized(result, *, backend_label):
    payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
    payload["data"]["fields"]["backend"] = backend_label
    return payload


def _vector_result(benchmark, scheduler, run_config):
    return execute(
        SimulationRequest(benchmark, scheduler, run_config, backend="vector")
    )


# ---------------------------------------------------------------------------
# Golden parity: the full fixture matrix, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(GOLDEN["entries"]))
def test_vector_matches_golden(key):
    """The vector engine reproduces every golden entry exactly.

    The fixtures pin ``reference`` and single-SM ``lockstep`` runs (which
    are bit-identical to each other by contract), so the vector engine must
    match both — the only tolerated difference is the engine label.
    """
    benchmark, scheduler, backend = key.split("/")
    meta = GOLDEN["_meta"]
    result = _vector_result(
        benchmark, scheduler, RunConfig(scale=meta["scale"], seed=meta["seed"])
    )
    want = GOLDEN["entries"][key]
    got = _normalized(result, backend_label=want["data"]["fields"]["backend"])
    assert got == want, (
        f"{key}: vector output drifted from the golden fixture — the vector "
        "engine must stay bit-identical to the reference semantics"
    )


# ---------------------------------------------------------------------------
# Targeted parity beyond the fixture matrix
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "machine",
    [
        {"gpu_config": GPUConfig.gtx480_large_l1d()},
        {"gpu_config": GPUConfig.gtx480_8way_l1d()},
        {"dram_bandwidth_scale": 2.0},
        {"gpu_config": GPUConfig.gtx480(num_sms=2)},
    ],
    ids=["large-l1d", "8way-l1d", "2x-dram", "two-sms"],
)
def test_vector_matches_reference_on_machine_variants(machine):
    """Figure 12 machine variants and multi-SM runs stay bit-identical."""
    config = RunConfig(scale=0.03, seed=3, **machine)
    reference = execute(SimulationRequest("ATAX", "gto", config, backend="reference"))
    vector = _vector_result("ATAX", "gto", config)
    assert _normalized(vector, backend_label="x") == _normalized(
        reference, backend_label="x"
    )


def test_vector_matches_reference_on_geometry_and_budget():
    """Launch-geometry overrides and cycle-budget truncation stay exact."""
    config = RunConfig(
        scale=0.05, seed=7, num_ctas=3, warps_per_cta=4, max_cycles=4_000
    )
    reference = execute(SimulationRequest("SYRK", "ccws", config, backend="reference"))
    vector = _vector_result("SYRK", "ccws", config)
    assert _normalized(vector, backend_label="x") == _normalized(
        reference, backend_label="x"
    )


@pytest.mark.parametrize("bench", ["SYRK", "KMN"])
def test_vector_matches_reference_when_ccws_throttles_the_greedy_warp(bench):
    """CCWS's periodic cutoff runs before the issue check, as in reference.

    At this scale the cutoff throttles the greedy warp in the very cycle it
    would issue a global load (SYRK: SM 0, cycle 15736, warp 46); the
    fuzz suite's smaller scales never reach a throttle.
    """
    from repro.api import result_digest

    config = RunConfig(scale=0.05, seed=1)
    reference = execute(SimulationRequest(bench, "ccws", config, backend="reference"))
    vector = _vector_result(bench, "ccws", config)
    assert result_digest(_normalized(vector, backend_label="x")) == result_digest(
        _normalized(reference, backend_label="x")
    )


def test_vector_matches_reference_with_wide_issue():
    """issue_width > 1 disables batching but must stay bit-identical."""
    config = RunConfig(
        scale=0.03, seed=1, gpu_config=GPUConfig.gtx480().with_overrides(issue_width=2)
    )
    reference = execute(SimulationRequest("WC", "gto", config, backend="reference"))
    vector = _vector_result("WC", "gto", config)
    assert _normalized(vector, backend_label="x") == _normalized(
        reference, backend_label="x"
    )


def test_vector_result_carries_engine_label():
    result = _vector_result("ATAX", "gto", RunConfig(scale=0.02))
    assert result.backend == "vector"
    assert result.inter_sm_dram_conflicts == 0  # serialized engines report 0


# ---------------------------------------------------------------------------
# Registration / availability
# ---------------------------------------------------------------------------
def test_vector_is_registered_with_aliases():
    assert "vector" in backend_names()
    assert resolve_backend_name("vectorized") == "vector"
    assert get_backend("vector").name == "vector"


def test_backend_availability_reports_all_engines():
    availability = backend_availability()
    assert set(availability) == set(backend_names())
    # Every real engine is available.  The chaos wrapper is the deliberate
    # exception — it is unavailable (with a configuration hint) until a
    # fault plan is active.
    assert availability["chaos"] is not None and "fault plan" in availability["chaos"]
    assert all(reason is None
               for name, reason in availability.items() if name != "chaos")


def test_unconfigured_backend_is_listed_but_not_selectable():
    """Selection (not registration) fails with a clear configuration hint."""
    # The registry still lists and resolves the name...
    assert "chaos" in backend_names()
    assert resolve_backend_name("chaos") == "chaos"
    # ...availability explains the gap...
    reason = backend_availability()["chaos"]
    assert reason is not None and "fault plan" in reason
    # ...and only selection raises, with the hint in the message.
    with pytest.raises(BackendUnavailableError, match="fault plan"):
        get_backend("chaos")
    with pytest.raises(BackendUnavailableError):
        execute(SimulationRequest("ATAX", "gto", RunConfig(scale=0.02), backend="chaos"))


def test_engines_never_import_numpy():
    """A vector job and a co-located lockstep job leave numpy unimported."""
    import os
    import subprocess
    import sys

    code = "\n".join([
        "import sys",
        "from repro.api import (MultiTenantRequest, RunConfig,",
        "    SimulationRequest, TenantSpec, execute)",
        "config = RunConfig(scale=0.02)",
        "execute(SimulationRequest('ATAX', 'gto', config, backend='vector'))",
        "execute(MultiTenantRequest(tenants=(",
        "    TenantSpec('a', 'ATAX', 'gto', (0,), address_space=1),",
        "    TenantSpec('b', 'SYRK', 'ccws', (1,), address_space=2),",
        "), run_config=config))",
        "assert 'numpy' not in sys.modules, 'an engine imported numpy'",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_vector_rejects_multi_tenant_requests():
    from repro.api import MultiTenantRequest, TenantSpec

    request = MultiTenantRequest(
        tenants=(
            TenantSpec("a", "ATAX", "gto", (0,)),
            TenantSpec("b", "ATAX", "gto", (1,)),
        ),
        run_config=RunConfig(scale=0.02),
        backend="vector",
    )
    with pytest.raises(ValueError, match="lockstep"):
        execute(request)


# ---------------------------------------------------------------------------
# Trace interning
# ---------------------------------------------------------------------------
def test_traces_are_interned_across_requests():
    clear_trace_cache()
    config = RunConfig(scale=0.02, seed=11)
    _vector_result("ATAX", "gto", config)
    entries_after_first, _ = trace_cache_info()
    # A different scheduler over the same kernel reuses the same trace...
    _vector_result("ATAX", "ccws", config)
    entries_after_second, _ = trace_cache_info()
    assert entries_after_second == entries_after_first
    # ...while a different seed is a different kernel identity.
    _vector_result("ATAX", "gto", RunConfig(scale=0.02, seed=12))
    entries_after_third, _ = trace_cache_info()
    assert entries_after_third == entries_after_first + 1


def test_trace_cache_is_bounded():
    from repro.gpu.vector.trace import TRACE_CACHE_CAPACITY

    clear_trace_cache()
    for seed in range(TRACE_CACHE_CAPACITY + 3):
        _vector_result("ATAX", "gto", RunConfig(scale=0.02, seed=100 + seed))
    entries, capacity = trace_cache_info()
    assert capacity == TRACE_CACHE_CAPACITY
    assert entries <= capacity


# ---------------------------------------------------------------------------
# Trace layout
# ---------------------------------------------------------------------------
def test_packed_trace_holds_only_flat_tables():
    """A packed warp trace is ``bytes`` and ``array`` tables, nothing else.

    Per-access tuples and a per-warp instruction list held most of a trace's
    memory; the engine reads flat tables instead, set indices included, and
    replays each instruction from its kind code.
    """
    from array import array

    from repro.gpu.vector.trace import REPLAYED, KernelTrace, WarpTrace
    from repro.workloads import get_benchmark
    from repro.workloads.synthetic import SyntheticKernelModel

    # SS has scratchpad accesses and two-block (divergent) global accesses.
    model = SyntheticKernelModel(get_benchmark("SS"), scale=0.05, seed=3)
    trace = KernelTrace(model.kernel_launch()).warp(0, 0)
    assert len(trace.shared_offsets) > 0
    assert len(trace.mem_flat) > len(trace.mem_starts) - 1
    small = trace.sets_for_geometry((32, "xor"))
    large = trace.sets_for_geometry((70_000, "linear"))
    assert not hasattr(trace, "__dict__")
    for name in WarpTrace.__slots__:
        value = getattr(trace, name)
        if name == "_sets_by_geometry":
            tables = list(value.values())
        elif name == "_shared_costs":
            assert value == {}  # filled per CTA allocation at admission
            continue
        else:
            tables = [value]
        for table in tables:
            assert isinstance(table, (bytes, array)), (name, type(table))
    assert (small.typecode, large.typecode) == ("H", "i")
    replayed = list(trace.replay())
    assert len(replayed) == len(trace) == len(trace.kind_codes)
    assert all(
        instruction is REPLAYED[code]
        for instruction, code in zip(replayed, trace.kind_codes)
    )
