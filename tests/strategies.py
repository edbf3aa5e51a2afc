"""Shared hypothesis strategies and wire-format helpers for the suite.

Importable as ``from strategies import ...`` — pytest's default import mode
puts ``tests/`` on ``sys.path`` for test modules.  One home for the request
builders that used to be copy-pasted across ``test_run_batch.py``,
``test_properties.py`` and ``test_multi_tenant.py``, and the building
blocks of the differential fuzz harness (``test_differential_fuzz.py``)
and the scenario tests (``test_scenarios.py``).

Every strategy samples *small* workloads (scale 0.02–0.05, tiny seed
pools): each drawn example simulates in milliseconds, so hypothesis can
afford real example counts (the profiles live in the root ``conftest.py``).
"""

import json

from hypothesis import strategies as st

from repro.api import MultiTenantRequest, RunConfig, SimulationRequest, TenantSpec

#: Engines a single-kernel request may pin.
SINGLE_KERNEL_BACKENDS = ("reference", "vector")

#: Small benchmark/scheduler pools covering the main workload classes
#: (LWS thrasher, SWS, irregular MapReduce) and scheduler mechanisms.
FUZZ_BENCHMARKS = ("ATAX", "SYRK", "WC")
FUZZ_SCHEDULERS = ("gto", "lrr", "ccws")

#: Pinned tiny sizing shared by the multi-tenant and scenario tests.
SMALL = RunConfig(scale=0.05, seed=1)


def pair_request(**overrides) -> MultiTenantRequest:
    """The canonical two-tenant co-location request the suite pins."""
    fields = {
        "tenants": (
            TenantSpec("left", "ATAX", "gto", (0,), address_space=1),
            TenantSpec("right", "SYRK", "ccws", (1,), address_space=2),
        ),
        "run_config": SMALL,
    }
    fields.update(overrides)
    return MultiTenantRequest(**fields)


def result_dicts(results):
    """JSON-normalised ``to_dict`` forms, comparable with plain ``==``."""
    return [json.loads(json.dumps(r.to_dict(), sort_keys=True)) for r in results]


def strip_backend(payloads):
    """Blank the backend field so cross-engine payloads compare equal."""
    for payload in payloads:
        payload["data"]["fields"]["backend"] = ""
    return payloads


def run_configs(*, scale=0.02, max_seed=3):
    """``RunConfig`` strategy at a pinned scale with a tiny seed pool."""
    return st.builds(
        RunConfig,
        scale=st.just(scale),
        seed=st.integers(min_value=1, max_value=max_seed),
    )


def simulation_requests(
    *,
    benchmarks=("ATAX", "SYRK"),
    schedulers=("gto", "lrr"),
    scale=0.02,
    max_seed=3,
    backends=(None, *SINGLE_KERNEL_BACKENDS),
):
    """Single-kernel request strategy (run_batch / differential-fuzz input)."""
    return st.builds(
        SimulationRequest,
        benchmark=st.sampled_from(list(benchmarks)),
        scheduler=st.sampled_from(list(schedulers)),
        run_config=run_configs(scale=scale, max_seed=max_seed),
        backend=st.sampled_from(list(backends)),
    )


@st.composite
def sm_partitions(draw, max_sms=8):
    """A random disjoint SM partition of a small machine into tenants."""
    num_sms = draw(st.integers(min_value=1, max_value=max_sms))
    sm_ids = draw(st.permutations(list(range(num_sms))))
    num_tenants = draw(st.integers(min_value=1, max_value=num_sms))
    if num_tenants == 1:
        cuts = []
    else:
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=num_sms - 1),
                    unique=True,
                    min_size=num_tenants - 1,
                    max_size=num_tenants - 1,
                )
            )
        )
    bounds = [0, *cuts, num_sms]
    return [
        tuple(sorted(sm_ids[lo:hi])) for lo, hi in zip(bounds, bounds[1:])
    ]


@st.composite
def multi_tenant_requests(draw, *, max_sms=8, scale=0.05, stagger_span=2000):
    """A valid multi-tenant request: random partition, mix, launch offsets.

    Half the examples launch simultaneously (the classic path), the other
    half stagger tenant arrivals within ``stagger_span`` cycles.
    """
    partition = draw(sm_partitions(max_sms=max_sms))
    staggered = draw(st.booleans())
    tenants = []
    for index, sm_ids in enumerate(partition):
        launch = (
            draw(st.integers(min_value=0, max_value=stagger_span - 1))
            if staggered
            else 0
        )
        tenants.append(
            TenantSpec(
                name=f"t{index}",
                benchmark=draw(st.sampled_from(FUZZ_BENCHMARKS)),
                scheduler=draw(st.sampled_from(FUZZ_SCHEDULERS)),
                sm_ids=sm_ids,
                address_space=index,
                launch_cycle=launch,
            )
        )
    return MultiTenantRequest(
        tenants=tuple(tenants),
        run_config=RunConfig(
            scale=scale, seed=draw(st.integers(min_value=1, max_value=1000))
        ),
    )
