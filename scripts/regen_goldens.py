#!/usr/bin/env python
"""Regenerate the golden-stats fixtures under ``tests/goldens/``.

The golden file pins the *exact* simulation output — every counter, stall,
time series and interference matrix of ``SimulationResult.to_dict()`` — for
a small benchmark matrix across every registered scheduler and both in-tree
backends.  ``tests/test_goldens.py`` recomputes each entry and compares it
bit-for-bit, so any perf work on the cycle engine that changes semantics
(however subtly) fails loudly instead of silently drifting the paper's
figures.

Entries are computed on the reference semantics only: the serialized loop,
and the lock-step loop over plain reference SMs (the oracle).  The
production ``lockstep`` and ``vector`` engines replay traces on
``VectorSM`` and are pinned *against* these fixtures, so they never
produce them.

Run from the repository root::

    PYTHONPATH=src python scripts/regen_goldens.py

Only regenerate (and commit the diff) when a change is *supposed* to alter
simulation semantics; pure performance work must leave this file untouched.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import (  # noqa: E402
    RESULT_SCHEMA,
    MultiTenantRequest,
    RunConfig,
    SimulationRequest,
    TenantSpec,
)
from repro.backends import materialize, materialize_tenants  # noqa: E402
from repro.gpu.lockstep import run_lockstep, run_multi_tenant  # noqa: E402
from repro.scenarios import load_promoted  # noqa: E402
from repro.sched.registry import scheduler_names  # noqa: E402

#: Fixture sizing: small enough that the whole matrix replays in seconds,
#: large enough that every scheduler mechanism (throttling, redirection,
#: bypassing, barriers) actually fires.
SCALE = 0.05
SEED = 1

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "goldens" / "golden_stats.json"
TENANT_GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "tests" / "goldens" / "golden_tenants.json"
)

#: Every scheduler runs on the primary benchmark; two more benchmarks (a
#: sub-working-set and a compute/irregular workload) cover the main paper
#: mechanisms under the baseline and the full CIAO scheme.
PRIMARY_BENCHMARK = "ATAX"
EXTRA_BENCHMARKS = ("SYRK", "WC")
EXTRA_SCHEDULERS = ("gto", "ciao-c")
BACKENDS = ("reference", "lockstep")


def golden_matrix() -> list[tuple[str, str, str]]:
    """The pinned (benchmark, scheduler, backend) grid."""
    cases = [
        (PRIMARY_BENCHMARK, sched, backend)
        for sched in scheduler_names()
        for backend in BACKENDS
    ]
    cases += [
        (bench, sched, backend)
        for bench in EXTRA_BENCHMARKS
        for sched in EXTRA_SCHEDULERS
        for backend in BACKENDS
    ]
    return cases


def tenant_matrix() -> dict[str, MultiTenantRequest]:
    """The pinned multi-tenant grid: mixed schedulers, asymmetric partitions.

    Each entry pins the full co-located ``SimulationResult`` (per-SM stats,
    per-tenant breakdown, conflict attribution), so engine work that touches
    the partitioned driver stays bit-exact on this path too.  Distinct
    ``address_space`` colours model separate processes; the
    ``shared-address`` entry pins the colour-0 path the single-kernel parity
    contract relies on.

    Promoted search discoveries (``repro scenarios promote``) are appended
    under ``promoted-<name>`` keys at *their own* pinned scale/seed — they
    are the only entries exercising the staggered-launch path, so the
    fixture gates it bit-for-bit too.
    """
    config = RunConfig(scale=SCALE, seed=SEED)

    def request(*tenants: TenantSpec) -> MultiTenantRequest:
        return MultiTenantRequest(tenants=tuple(tenants), run_config=config)

    entries = {
        "sym-atax": request(
            TenantSpec("a", "ATAX", "gto", (0,), address_space=1),
            TenantSpec("b", "ATAX", "gto", (1,), address_space=2),
        ),
        "shared-address": request(
            TenantSpec("a", "ATAX", "gto", (0,)),
            TenantSpec("b", "ATAX", "gto", (1,)),
        ),
        "mixed-sched": request(
            TenantSpec("gto", "ATAX", "gto", (0,), address_space=1),
            TenantSpec("ciao", "ATAX", "ciao-c", (1,), address_space=2),
        ),
        "thrash-compute": request(
            TenantSpec("thrash", "SM", "gto", (0,), address_space=1),
            TenantSpec("compute", "2DCONV", "gto", (1,), address_space=2),
        ),
        "asym-split": request(
            TenantSpec("wide", "GESUMMV", "ccws", (0, 1), address_space=1),
            TenantSpec("narrow", "2DCONV", "gto", (2,), address_space=2),
        ),
        "quad": request(
            TenantSpec("lws", "ATAX", "gto", (0,), address_space=1),
            TenantSpec("sws", "SYRK", "best-swl", (1,), address_space=2),
            TenantSpec("mapreduce", "SM", "gto", (2,), address_space=3),
            TenantSpec("compute", "2DCONV", "two-level", (3,), address_space=4),
        ),
    }
    for scenario in load_promoted():
        entries[f"promoted-{scenario.name}"] = scenario.request()
    return entries


def oracle_result(request):
    """Simulate ``request`` on plain reference SMs (never ``VectorSM``).

    ``materialize`` / ``materialize_tenants`` build the reference machine;
    a ``reference`` case runs its serialized loop, a ``lockstep`` or
    co-located case runs the lock-step loop over it.
    """
    if isinstance(request, MultiTenantRequest):
        plans, gpu, config = materialize_tenants(request)
        return run_multi_tenant(gpu, plans, max_cycles=config.max_cycles)
    scheduler, kernel, gpu, config = materialize(request)
    if request.backend == "lockstep":
        return run_lockstep(
            gpu, kernel, max_cycles=config.max_cycles, scheduler_name=scheduler
        )
    return gpu.run(kernel, max_cycles=config.max_cycles, scheduler_name=scheduler)


def normalised(payload) -> dict:
    """Round-trip through the JSON text form so the stored fixture and a
    freshly computed result compare with plain ``==``."""
    return json.loads(json.dumps(payload, sort_keys=True))


def compute_entry(benchmark: str, scheduler: str, backend: str) -> dict:
    """Simulate one golden case and return its JSON-normalised result."""
    request = SimulationRequest(
        benchmark, scheduler, RunConfig(scale=SCALE, seed=SEED), backend=backend
    )
    return normalised(oracle_result(request).to_dict())


def compute_tenant_entry(request: MultiTenantRequest) -> dict:
    """Simulate one co-location case; the entry pins request and result."""
    return normalised(
        {"request": request.to_dict(), "result": oracle_result(request).to_dict()}
    )


#: Engines golden fixtures may be generated from.  A deliberate literal —
#: NOT derived from ``BACKENDS`` — so adding an engine to the regen matrix
#: cannot silently grant it fixture-source rights.  The ``vector`` engine is
#: excluded on purpose: its contract is to *match* these fixtures
#: bit-for-bit, so sourcing them from it would make the parity gate
#: circular.  Goldens always come from the reference semantics.
ALLOWED_SOURCE_BACKENDS = frozenset({"reference", "lockstep"})


def _refuse_vector_source() -> None:
    """Abort when the environment or matrix would source goldens from vector."""
    from repro.backends import resolve_backend_name

    forbidden = sorted(set(BACKENDS) - ALLOWED_SOURCE_BACKENDS)
    if forbidden:
        raise SystemExit(
            f"refusing to regenerate goldens from backend(s) {forbidden}; "
            "fixtures are sourced from the reference semantics only"
        )
    try:
        env_backend = resolve_backend_name(None)
    except KeyError:
        env_backend = ""
    if env_backend == "vector":
        raise SystemExit(
            "refusing to regenerate goldens with REPRO_BACKEND=vector: the "
            "vector engine is pinned *against* these fixtures (it must match "
            "reference bit-for-bit), so goldens are always sourced from the "
            "reference/lockstep semantics. Unset REPRO_BACKEND and rerun."
        )


def main() -> int:
    os.environ.setdefault("REPRO_RESULT_CACHE", "0")
    os.environ.setdefault("REPRO_LEDGER", "0")
    _refuse_vector_source()
    entries = {}
    for benchmark, scheduler, backend in golden_matrix():
        key = f"{benchmark}/{scheduler}/{backend}"
        print(f"golden: {key}", file=sys.stderr)
        entries[key] = compute_entry(benchmark, scheduler, backend)
    payload = {
        "_meta": {
            "scale": SCALE,
            "seed": SEED,
            "result_schema": RESULT_SCHEMA,
            "regen": "PYTHONPATH=src python scripts/regen_goldens.py",
        },
        "entries": entries,
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(entries)} entries)", file=sys.stderr)

    tenant_entries = {}
    for key, request in tenant_matrix().items():
        print(f"tenant golden: {key}", file=sys.stderr)
        tenant_entries[key] = compute_tenant_entry(request)
    tenant_payload = {
        "_meta": {
            "scale": SCALE,
            "seed": SEED,
            "result_schema": RESULT_SCHEMA,
            "regen": "PYTHONPATH=src python scripts/regen_goldens.py",
        },
        "entries": tenant_entries,
    }
    TENANT_GOLDEN_PATH.write_text(
        json.dumps(tenant_payload, indent=1, sort_keys=True) + "\n"
    )
    print(
        f"wrote {TENANT_GOLDEN_PATH} ({len(tenant_entries)} entries)", file=sys.stderr
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
