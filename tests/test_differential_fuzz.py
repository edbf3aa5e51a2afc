"""Differential backend fuzzing: every engine computes the same simulation.

Hypothesis generates small single-kernel requests and runs each through
every in-tree engine — ``reference`` (serialized), ``lockstep``
(cycle-accurate multi-SM, here on the single-kernel path) and ``vector``
(trace-replaying, batch-issuing).  The results must
be bit-identical after blanking the backend label: that is the repo's
cross-engine parity contract, here probed over the whole request space
instead of the pinned golden matrix.

Co-located requests get the same treatment against the lock-step oracle:
the production ``lockstep`` engine replays tenant traces on ``VectorSM``,
the oracle runs the same lock-step loop over plain reference SMs, and every
generated scenario, isolated baselines included, must digest identically.

Example depth is controlled by the hypothesis profile in the root
``conftest.py`` (``ci``: 60 derandomized examples; ``deep``: 600, selected
with ``HYPOTHESIS_PROFILE=deep``).  A co-located example runs several jobs
on two engines, so its test draws a sixth of the profile's examples.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (
    FUZZ_BENCHMARKS,
    FUZZ_SCHEDULERS,
    result_dicts,
    simulation_requests,
    strip_backend,
)

from repro.api import (
    MultiTenantRequest,
    RunConfig,
    TenantSpec,
    execute,
    result_digest,
)
from repro.backends import materialize_tenants
from repro.gpu.lockstep import run_multi_tenant
from repro.gpu.sm import StreamingMultiprocessor
from repro.scenarios.generator import generate_scenario

ENGINES = ("reference", "lockstep", "vector")


@settings(deadline=None)
@given(
    request=simulation_requests(
        benchmarks=FUZZ_BENCHMARKS, schedulers=FUZZ_SCHEDULERS, backends=(None,)
    )
)
def test_engines_agree_bit_for_bit(request):
    """reference == lockstep == vector on arbitrary single-kernel requests."""
    results = [
        execute(dataclasses.replace(request, backend=engine)) for engine in ENGINES
    ]
    payloads = strip_backend(result_dicts(results))
    for engine, payload in zip(ENGINES[1:], payloads[1:]):
        assert payload == payloads[0], (
            f"{engine} diverged from reference on {request.benchmark_name}/"
            f"{request.scheduler} seed {request.run_config.seed}"
        )


# ---------------------------------------------------------------------------
# Co-located requests: production lockstep == the lock-step oracle
# ---------------------------------------------------------------------------
#: Generated ``(seed, index)`` scenarios that together cover simultaneous
#: and staggered launches and two-level and ciao-c tenants.
PINNED_SCENARIOS = ((1, 0), (1, 2), (2, 1), (3, 4))


def _scenario(seed, index):
    return generate_scenario(seed, index, scale=0.02, max_sms=4)


def _oracle(request):
    """The co-located job on plain reference SMs, driven in lock step."""
    plans, gpu, config = materialize_tenants(request)
    return run_multi_tenant(gpu, plans, max_cycles=config.max_cycles)


def _assert_lockstep_matches_oracle(scenario):
    request = scenario.request()
    jobs = (request, *(request.isolated_request(t.name) for t in request.tenants))
    for job in jobs:
        production = result_digest(execute(job).to_dict())
        assert production == result_digest(_oracle(job).to_dict()), (
            f"lockstep diverged from the oracle on {scenario.name} "
            f"({job.benchmark_name}, tenants {[t.name for t in job.tenants]})"
        )


def test_pinned_scenarios_cover_the_tenant_paths():
    requests = [_scenario(*pinned).request() for pinned in PINNED_SCENARIOS]
    schedulers = {t.scheduler for r in requests for t in r.tenants}
    assert {"two-level", "ciao-c"} <= schedulers
    staggered = {any(t.launch_cycle for t in r.tenants) for r in requests}
    assert staggered == {True, False}


@pytest.mark.parametrize("seed,index", PINNED_SCENARIOS)
def test_lockstep_matches_oracle_on_pinned_scenarios(seed, index):
    _assert_lockstep_matches_oracle(_scenario(seed, index))


#: A co-location in which one tenant never sleeps: statPCAL's select is not
#: sticky and its on_cycle reads shared state (DRAM utilisation), beside an
#: MSHR-bound tenant that sleeps and a CCWS tenant.  The generated
#: scenarios' scheduler pool has no statPCAL.
NEVER_SLEEPS = MultiTenantRequest(
    tenants=(
        TenantSpec("bypass", "ATAX", "statpcal", (0,), address_space=1),
        TenantSpec("mshr-bound", "KMN", "gto", (1,), address_space=2),
        TenantSpec("locality", "SYRK", "ccws", (2,), address_space=3),
    ),
    run_config=RunConfig(scale=0.02, seed=1),
)


def test_lockstep_matches_oracle_beside_a_statpcal_tenant(monkeypatch):
    steps = [0]
    step_cycle = StreamingMultiprocessor.step_cycle

    def counted(sm, now):
        steps[0] += 1
        return step_cycle(sm, now)

    monkeypatch.setattr(StreamingMultiprocessor, "step_cycle", counted)
    request = NEVER_SLEEPS
    for job in (request, *(request.isolated_request(t.name) for t in request.tenants)):
        start = steps[0]
        production = result_digest(execute(job).to_dict())
        production_steps = steps[0] - start
        oracle = result_digest(_oracle(job).to_dict())
        oracle_steps = steps[0] - start - production_steps
        assert production == oracle, f"lockstep diverged from the oracle on {job.tenants}"
        # Sleeping SMs and batched solo runs skip SM steps (statPCAL alone
        # has no stretches to batch): a silent fall-back to per-cycle
        # stepping fails on the co-located job.
        assert production_steps <= oracle_steps
        if job is request:
            assert production_steps < oracle_steps


@settings(deadline=None, max_examples=max(1, settings.default.max_examples // 6))
@given(seed=st.integers(min_value=1, max_value=10_000), index=st.integers(0, 20))
def test_lockstep_matches_oracle_on_generated_scenarios(seed, index):
    _assert_lockstep_matches_oracle(_scenario(seed, index))
