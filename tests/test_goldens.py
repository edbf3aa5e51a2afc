"""Golden-stats regression fixtures: the cycle engine is pinned bit-for-bit.

``tests/goldens/golden_stats.json`` stores the full ``SimulationResult``
(every counter, stall breakdown, time series and interference matrix) for a
small benchmark matrix across every registered scheduler and both in-tree
backends.  ``tests/goldens/golden_tenants.json`` does the same for the
multi-tenant lock-step driver: pinned co-location requests (mixed
schedulers, asymmetric partitions, shared and private address spaces) and
their full results including the per-tenant breakdown.  These tests
recompute each entry and compare exactly, so any perf work on the hot path
that changes semantics — however subtly — fails loudly instead of silently
drifting the paper's figures.

Regenerate (only for deliberate semantic changes) with::

    PYTHONPATH=src python scripts/regen_goldens.py
"""

import json
from pathlib import Path

import pytest

from repro.api import (
    RESULT_SCHEMA,
    MultiTenantRequest,
    RunConfig,
    SimulationRequest,
    execute,
)
from repro.sched.registry import scheduler_names

GOLDEN_PATH = Path(__file__).parent / "goldens" / "golden_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

TENANT_GOLDEN_PATH = Path(__file__).parent / "goldens" / "golden_tenants.json"
TENANT_GOLDEN = json.loads(TENANT_GOLDEN_PATH.read_text())


def test_regen_script_refuses_vector_source(monkeypatch):
    """Goldens are sourced from reference semantics, never from vector.

    The vector engine's SM (``VectorSM``, which the production ``lockstep``
    engine runs on too) is pinned *against* these fixtures, so regenerating
    them from it would make the parity gate circular: the regen script
    refuses a vector source outright and computes every entry on plain
    reference SMs.
    """
    import importlib.util

    from repro.gpu.vector.engine import VectorSM

    script = Path(__file__).parent.parent / "scripts" / "regen_goldens.py"
    spec = importlib.util.spec_from_file_location("_regen_goldens_test", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setenv("REPRO_BACKEND", "vector")
    with pytest.raises(SystemExit, match="vector"):
        module._refuse_vector_source()
    monkeypatch.delenv("REPRO_BACKEND")
    module._refuse_vector_source()  # the reference default is allowed

    def no_vector_sm(self, *args, **kwargs):
        raise AssertionError("golden regeneration constructed a VectorSM")

    monkeypatch.setattr(VectorSM, "__init__", no_vector_sm)
    for key in ("ATAX/gto/lockstep", "ATAX/gto/reference"):
        assert module.compute_entry(*key.split("/")) == GOLDEN["entries"][key]
    key = "sym-atax"
    request = module.tenant_matrix()[key]
    assert module.compute_tenant_entry(request) == TENANT_GOLDEN["entries"][key]


def test_golden_file_metadata():
    meta = GOLDEN["_meta"]
    assert meta["result_schema"] == RESULT_SCHEMA
    assert meta["scale"] > 0 and isinstance(meta["seed"], int)
    assert "regen_goldens.py" in meta["regen"]


def test_golden_matrix_covers_every_scheduler_and_backend():
    """The fixture pins every registered scheduler on both backends."""
    covered = {tuple(key.split("/")[1:]) for key in GOLDEN["entries"]}
    for scheduler in scheduler_names():
        for backend in ("reference", "lockstep"):
            assert (scheduler, backend) in covered, (scheduler, backend)


def test_tenant_golden_file_metadata():
    meta = TENANT_GOLDEN["_meta"]
    assert meta["result_schema"] == RESULT_SCHEMA
    assert meta["scale"] > 0 and isinstance(meta["seed"], int)
    assert len(TENANT_GOLDEN["entries"]) >= 4


def test_tenant_golden_matrix_is_diverse():
    """The fixture pins mixed schedulers and asymmetric partitions."""
    schedulers = set()
    partition_sizes = set()
    for entry in TENANT_GOLDEN["entries"].values():
        request = MultiTenantRequest.from_dict(entry["request"])
        for tenant in request.tenants:
            schedulers.add(tenant.scheduler)
            partition_sizes.add(len(tenant.sm_ids))
    assert len(schedulers) >= 3, schedulers
    assert len(partition_sizes) >= 2, partition_sizes


@pytest.mark.parametrize("key", sorted(TENANT_GOLDEN["entries"]))
def test_multi_tenant_simulation_matches_golden(key):
    entry = TENANT_GOLDEN["entries"][key]
    request = MultiTenantRequest.from_dict(entry["request"])
    result = execute(request)
    recomputed = json.loads(json.dumps(result.to_dict(), sort_keys=True))
    assert recomputed == entry["result"], (
        f"{key}: multi-tenant output drifted from the golden fixture; if "
        "this is a deliberate semantic change, regenerate with "
        "scripts/regen_goldens.py and explain the drift in the PR"
    )


@pytest.mark.parametrize("key", sorted(GOLDEN["entries"]))
def test_simulation_matches_golden(key):
    benchmark, scheduler, backend = key.split("/")
    meta = GOLDEN["_meta"]
    result = execute(
        SimulationRequest(
            benchmark,
            scheduler,
            RunConfig(scale=meta["scale"], seed=meta["seed"]),
            backend=backend,
        )
    )
    recomputed = json.loads(json.dumps(result.to_dict(), sort_keys=True))
    assert recomputed == GOLDEN["entries"][key], (
        f"{key}: simulation output drifted from the golden fixture; if this "
        "is a deliberate semantic change, regenerate with "
        "scripts/regen_goldens.py and explain the drift in the PR"
    )
