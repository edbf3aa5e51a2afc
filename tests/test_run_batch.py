"""``repro.api.run_batch``: batch execution equals per-request execution.

The contract under test is the one the serving layer relies on:
``run_batch(requests)`` returns exactly ``[run_benchmark(r) for r in
requests]`` result for result — whatever mix of benchmarks, schedulers,
seeds and backends the batch contains, and however cache hits interleave
with executed requests.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (
    result_dicts as _dicts,
    simulation_requests,
    strip_backend as _strip_backend,
)

from repro.api import (
    BatchExecutionError,
    RunConfig,
    SimulationRequest,
    execute,
    run_batch,
)
from repro.harness.cache import ResultCache
from repro.harness.parallel import run_jobs
from repro.harness.runner import run_benchmark

requests_strategy = st.lists(simulation_requests(), min_size=1, max_size=4)


@settings(max_examples=12, deadline=None)
@given(requests=requests_strategy)
def test_run_batch_equals_individual_runs(requests):
    """run_batch(reqs) == [run_benchmark(r) for r in reqs], result for result."""
    batched = run_batch(requests)
    individual = [
        run_benchmark(r.benchmark, r.scheduler, r.run_config, backend=r.backend)
        for r in requests
    ]
    assert _dicts(batched) == _dicts(individual)


@settings(max_examples=8, deadline=None)
@given(
    requests=requests_strategy,
    warm_mask=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_run_batch_with_cache_hit_interleavings(tmp_path_factory, requests, warm_mask):
    """Cache hits interleaved with fresh executions change nothing.

    A subset of the batch is pre-warmed into a result cache; the batched
    results (mixed hits and misses) must still equal the uncached
    per-request runs, and every miss must have been written back under its
    own request key.
    """
    cache = ResultCache(tmp_path_factory.mktemp("batch-cache"))
    for request, warm in zip(requests, warm_mask):
        if warm:
            cache.put(request.cache_key(), execute(request).to_dict())
    batched = run_batch(requests, cache=cache)
    individual = [execute(r) for r in requests]
    assert _dicts(batched) == _dicts(individual)
    for request in requests:
        assert cache.get(request.cache_key()) is not None


def test_run_batch_mixes_backends_in_one_call():
    """One batch spanning engines returns per-engine-correct results."""
    config = RunConfig(scale=0.02, seed=2)
    requests = [
        SimulationRequest("ATAX", "gto", config, backend="reference"),
        SimulationRequest("ATAX", "gto", config, backend="vector"),
        SimulationRequest("ATAX", "gto", config, backend="lockstep"),
    ]
    results = run_batch(requests)
    assert [r.backend for r in results] == ["reference", "vector", "lockstep"]
    # Single-SM runs are bit-identical across all three engines.
    payloads = _strip_backend(_dicts(results))
    assert payloads[0] == payloads[1] == payloads[2]


def test_run_batch_backend_argument_fills_unpinned_requests():
    config = RunConfig(scale=0.02)
    unpinned = SimulationRequest("ATAX", "gto", config)
    pinned = SimulationRequest("ATAX", "gto", config, backend="reference")
    results = run_batch([unpinned, pinned], backend="vector")
    assert results[0].backend == "vector"
    assert results[1].backend == "reference"


def test_run_batch_error_names_the_offending_request():
    good = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02))
    bad = SimulationRequest("NOPE-NOT-A-BENCHMARK", "gto", RunConfig(scale=0.02))
    with pytest.raises(BatchExecutionError) as excinfo:
        run_batch([good, bad])
    assert excinfo.value.request.benchmark_name == "NOPE-NOT-A-BENCHMARK"


def test_run_batch_failure_keeps_already_cached_results(tmp_path):
    """A failing request must not discard the completed work before it."""
    cache = ResultCache(tmp_path / "cache")
    good = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02))
    also_good = SimulationRequest("SYRK", "gto", RunConfig(scale=0.02))
    # Valid names (so the up-front cache-key pass accepts it) but a launch
    # geometry that fails at materialisation time, mid-batch.
    bad = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02, num_ctas=0))
    with pytest.raises(BatchExecutionError):
        run_batch([good, also_good, bad], cache=cache)
    # The successful requests were cached as they completed.
    assert cache.get(good.cache_key()) is not None
    assert cache.get(also_good.cache_key()) is not None


def test_run_jobs_in_process_path_uses_batch_semantics():
    """The sweep engine's worker-less path returns execute-equal results."""
    config = RunConfig(scale=0.02, seed=5)
    jobs = [
        SimulationRequest("ATAX", "gto", config),
        SimulationRequest("SYRK", "gto", config),
        SimulationRequest("ATAX", "lrr", config),
    ]
    outcome = run_jobs(jobs, workers=1, cache=None)
    individual = [execute(job) for job in jobs]
    assert _dicts(outcome.results) == _dicts(individual)
