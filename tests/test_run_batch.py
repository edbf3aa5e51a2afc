"""``repro.api.run_batch``: batch execution equals per-request execution.

The contract under test is the one the serving layer relies on:
``run_batch(requests).results`` holds exactly ``[run_benchmark(r) for r in
requests]`` result for result — whatever mix of benchmarks, schedulers,
seeds and backends the batch contains, and however cache hits interleave
with executed requests.  A failing request settles as its own
``JobFailure`` slot and never re-runs its neighbours.
"""

import asyncio
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (
    result_dicts as _dicts,
    simulation_requests,
    strip_backend as _strip_backend,
)

import repro.api
from repro.api import (
    RunConfig,
    SimulationRequest,
    execute,
    run_batch,
)
from repro.harness.cache import ResultCache
from repro.harness.parallel import JobFailure, RetryPolicy, run_jobs
from repro.harness.runner import run_benchmark
from repro.serve import ReproService

requests_strategy = st.lists(simulation_requests(), min_size=1, max_size=4)


@settings(max_examples=12, deadline=None)
@given(requests=requests_strategy)
def test_run_batch_equals_individual_runs(requests):
    """run_batch(reqs) == [run_benchmark(r) for r in reqs], result for result."""
    batched = run_batch(requests).results
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
    batched = run_batch(requests, cache=cache).results
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
    results = run_batch(requests).results
    assert [r.backend for r in results] == ["reference", "vector", "lockstep"]
    # Single-SM runs are bit-identical across all three engines.
    payloads = _strip_backend(_dicts(results))
    assert payloads[0] == payloads[1] == payloads[2]


def test_run_batch_error_names_the_offending_request():
    good = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02))
    bad = SimulationRequest("NOPE-NOT-A-BENCHMARK", "gto", RunConfig(scale=0.02))
    outcome = run_batch([good, bad])
    assert not isinstance(outcome.results[0], JobFailure)
    failure = outcome.results[1]
    assert isinstance(failure, JobFailure)
    assert failure.job.benchmark_name == "NOPE-NOT-A-BENCHMARK"
    assert "NOPE-NOT-A-BENCHMARK" in failure.error


def test_run_batch_failure_keeps_already_cached_results(tmp_path):
    """A failing request must not discard the completed work before it."""
    cache = ResultCache(tmp_path / "cache")
    good = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02))
    also_good = SimulationRequest("SYRK", "gto", RunConfig(scale=0.02))
    # Valid names (so the up-front cache-key pass accepts it) but a launch
    # geometry that fails at materialisation time, mid-batch.
    bad = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02, num_ctas=0))
    outcome = run_batch([good, also_good, bad], cache=cache)
    assert [isinstance(r, JobFailure) for r in outcome.results] == [
        False, False, True,
    ]
    # The successful requests were cached as they completed.
    assert cache.get(good.cache_key()) is not None
    assert cache.get(also_good.cache_key()) is not None


def test_run_batch_retries_each_request_on_its_own():
    """Under a policy only the failing request spends extra attempts."""
    good = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02))
    bad = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02, num_ctas=0))
    outcome = run_batch(
        [good, bad], retry=RetryPolicy(max_attempts=3, backoff_base=0.0)
    )
    assert outcome.attempts == [1, 3]
    assert outcome.results[1].attempts == 3
    assert outcome.stats.retried == 2


def serve_concurrently(service: ReproService, requests):
    """Submit ``requests`` to ``service`` at once, then drain it.

    Returns each submission's outcome (``(result, source, record)`` or the
    exception it raised) and the drain summary.
    """

    async def scenario():
        await service.start()
        outcomes = await asyncio.wait_for(
            asyncio.gather(
                *(service.submit(request) for request in requests),
                return_exceptions=True,
            ),
            timeout=120,
        )
        service.begin_shutdown()
        await service.wait_closed()
        return outcomes

    return asyncio.run(scenario()), service.drain_summary


@pytest.mark.parametrize(
    "retry",
    [None, RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)],
    ids=["no-policy", "retry-3"],
)
def test_failing_request_never_reruns_its_neighbours(monkeypatch, retry):
    """One bad request among served misses costs only its own attempts:
    each good neighbour executes once, the bad one ``max_attempts`` times."""
    executed = Counter()
    real_execute = repro.api.execute

    def counting_execute(request):
        executed[request.benchmark_name] += 1
        return real_execute(request)

    monkeypatch.setattr(repro.api, "execute", counting_execute)
    config = RunConfig(scale=0.02, seed=1)
    requests = [
        SimulationRequest("ATAX", "gto", config),
        SimulationRequest("SYRK", "gto", config),
        # Valid names but a launch geometry that fails inside the engine.
        SimulationRequest("MVT", "gto", RunConfig(scale=0.02, seed=1, num_ctas=0)),
        SimulationRequest("BICG", "gto", config),
    ]
    outcomes, summary = serve_concurrently(
        ReproService(port=0, workers=1, retry=retry), requests
    )
    assert summary["drain_errors"] == 0
    max_attempts = retry.max_attempts if retry is not None else 1
    assert executed == {"ATAX": 1, "SYRK": 1, "MVT": max_attempts, "BICG": 1}
    errors = {
        request.benchmark_name: outcome
        for request, outcome in zip(requests, outcomes)
        if isinstance(outcome, BaseException)
    }
    assert list(errors) == ["MVT"]
    message = str(errors["MVT"])
    assert requests[2].cache_key() in message
    assert "benchmark='MVT'" in message and "scheduler='gto'" in message
    assert f"backend={requests[2].resolved_backend()!r}" in message


def test_batch_level_error_fails_every_job_of_the_batch(monkeypatch):
    """An error raised by ``run_batch`` itself (not by one job, say a cache
    write) fails every waiter of that miss instead of leaving it hanging."""

    def broken(requests, **kwargs):
        raise OSError("cache volume is read-only")

    monkeypatch.setattr("repro.serve.server.run_batch", broken)
    atax = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02))
    requests = [atax, atax, SimulationRequest("SYRK", "gto", RunConfig(scale=0.02))]
    service = ReproService(port=0, workers=1)
    outcomes, summary = serve_concurrently(service, requests)
    assert summary["drain_errors"] == 0
    # The second ATAX waited on the first one's miss and fails with it.
    assert service.stats.batches == 2
    assert all(isinstance(outcome, OSError) for outcome in outcomes)
    assert service.stats.failed == 3 and service.stats.reconciles()


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
