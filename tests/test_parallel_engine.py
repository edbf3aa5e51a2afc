"""Tests for the parallel sweep engine (repro.harness.parallel)."""

import os

import pytest

from repro.api import SimulationRequest
from repro.harness.parallel import (
    JobFailure,
    RetryPolicy,
    SweepError,
    derive_seed,
    resolve_workers,
    run_jobs,
)
from repro.harness.runner import RunConfig, run_benchmark, run_many

SMALL = RunConfig(scale=0.05, seed=1)


def _grid(benchmarks=("SYRK", "ATAX"), schedulers=("gto", "ciao-c"), config=SMALL):
    return [SimulationRequest(b, s, config) for b in benchmarks for s in schedulers]


class TestIdenticalResults:
    def test_parallel_matches_sequential(self):
        jobs = _grid()
        sequential = run_jobs(jobs, workers=1, cache=None)
        parallel = run_jobs(jobs, workers=2, cache=None)
        assert sequential.stats.workers == 1
        assert parallel.stats.workers == 2
        for seq, par in zip(sequential.results, parallel.results):
            # Full dataclass equality: every counter, series and matrix.
            assert seq == par

    def test_engine_matches_direct_runner(self):
        jobs = _grid()
        outcome = run_jobs(jobs, workers=1, cache=None)
        for job, via_engine in zip(jobs, outcome.results):
            direct = run_benchmark(job.benchmark, job.scheduler, job.run_config)
            assert direct == via_engine

    def test_results_in_submission_order(self):
        jobs = _grid()
        outcome = run_jobs(jobs, workers=2, cache=None)
        for job, result in zip(jobs, outcome.results):
            assert result.kernel_name == job.benchmark_name
            assert result.scheduler_name == job.scheduler


class TestRunMany:
    def test_shape_and_stats(self):
        results, stats = run_many(
            ["SYRK", "ATAX"], ["gto", "ciao-c"],
            scale=0.05, seed=1, workers=1, cache=None, return_stats=True,
        )
        assert set(results) == {"SYRK", "ATAX"}
        assert set(results["SYRK"]) == {"gto", "ciao-c"}
        assert stats.jobs == 4 and stats.executed == 4 and stats.cache_hits == 0
        assert all(r.ipc > 0 for row in results.values() for r in row.values())

    def test_default_return_is_plain_dict(self):
        results = run_many(["SYRK"], ["gto"], scale=0.05, seed=1,
                           workers=1, cache=None)
        assert isinstance(results, dict)
        assert results["SYRK"]["gto"].ipc > 0


class TestDeterministicSeeds:
    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(1, "SYRK", "gto")
        assert a == derive_seed(1, "SYRK", "gto")
        assert a != derive_seed(1, "ATAX", "gto")
        assert a != derive_seed(2, "SYRK", "gto")
        assert a > 0

    def test_derive_seed_frames_part_boundaries(self):
        """Parts are length-prefixed, not joined with a separator.

        The historic ``":".join(parts)`` framing collapsed
        ``("a:b", "c")`` and ``("a", "b:c")`` onto one seed — and the
        ``--tenants`` grammar routinely puts ``:`` inside a part, so two
        genuinely different tenant sweeps could share correlated RNG
        streams.  Pinned here old-vs-new so the fix cannot regress.
        """
        assert derive_seed(1, "a:b", "c") != derive_seed(1, "a", "b:c")
        assert derive_seed(1, "ab", "") != derive_seed(1, "a", "b")
        assert derive_seed(1, "a", "b", "c") != derive_seed(1, "a", "b:c")

    def test_seed_lives_in_the_job_not_the_engine(self):
        # Two sweeps over permuted job lists must return the same result for
        # the same job whatever its position.
        jobs = _grid()
        forward = run_jobs(jobs, workers=1, cache=None)
        backward = run_jobs(list(reversed(jobs)), workers=2, cache=None)
        assert forward.results[0] == backward.results[-1]


class TestWorkersAndErrors:
    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(4, 100) == 4
        assert resolve_workers(4, 2) == 2       # clamped to job count
        assert resolve_workers(0, 8) == 1       # floored
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None, 100) == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None, 100) == max(1, min(os.cpu_count() or 1, 100))

    @pytest.mark.parametrize("bad", ["garbage", "0", "-3", "2.5"])
    def test_resolve_workers_rejects_bad_env(self, monkeypatch, bad):
        """A bad REPRO_WORKERS dies with one clear line naming the variable,
        instead of the bare int() ValueError it used to surface."""
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None, 8)

    def test_unknown_benchmark_raises_sweep_error(self):
        with pytest.raises(SweepError, match="NOPE"):
            run_jobs([SimulationRequest("NOPE", "gto", SMALL)], workers=1, cache=None)

    def test_unknown_benchmark_raises_sweep_error_with_cache(self, tmp_path):
        from repro.harness.cache import ResultCache

        with pytest.raises(SweepError, match="NOPE"):
            run_jobs([SimulationRequest("NOPE", "gto", SMALL)], workers=1,
                     cache=ResultCache(tmp_path))

    def test_scheduler_alias_runs_identically_to_canonical(self):
        # Aliases share a cache key, so they must also share execution
        # semantics (notably shared-cache enablement for ciao-p / ciao-c).
        alias = run_jobs([SimulationRequest("SYRK", "ciao_c", SMALL)], workers=1, cache=None)
        canonical = run_jobs([SimulationRequest("SYRK", "ciao-c", SMALL)], workers=1, cache=None)
        assert alias.results[0] == canonical.results[0]
        assert alias.results[0].scheduler_name == "ciao-c"

    def test_unknown_benchmark_raises_in_pool_too(self):
        jobs = [SimulationRequest("SYRK", "gto", SMALL), SimulationRequest("NOPE", "gto", SMALL)]
        with pytest.raises(SweepError, match="NOPE"):
            run_jobs(jobs, workers=2, cache=None)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             jitter=0.5, seed=3)
        first = policy.backoff_seconds("job-key", 1)
        assert first == policy.backoff_seconds("job-key", 1)
        # Jitter is bounded to ±50%, so retry 3 (4x base) always exceeds
        # retry 1 (1x base) despite the jitter.
        assert policy.backoff_seconds("job-key", 3) > first
        assert 0.05 <= first <= 0.15
        # Different keys draw different jitter from the same seed.
        assert first != policy.backoff_seconds("other-key", 1)

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=3.0, jitter=0.0)
        assert policy.backoff_seconds("k", 1) == pytest.approx(0.1)
        assert policy.backoff_seconds("k", 2) == pytest.approx(0.3)

    def test_validation(self):
        for bad in (
            dict(max_attempts=0),
            dict(backoff_base=-1.0),
            dict(backoff_factor=0.5),
            dict(jitter=2.0),
            dict(timeout_seconds=0.0),
            dict(straggler_seconds=-1.0),
        ):
            with pytest.raises(ValueError):
                RetryPolicy(**bad)


class TestOnErrorModes:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_jobs([SimulationRequest("SYRK", "gto", SMALL)], workers=1,
                     cache=None, on_error="explode")

    def test_skip_mode_keeps_the_successes(self):
        jobs = [
            SimulationRequest("SYRK", "gto", SMALL),
            SimulationRequest("NOPE", "gto", SMALL),
            SimulationRequest("ATAX", "gto", SMALL),
        ]
        outcome = run_jobs(jobs, workers=1, cache=None, on_error="skip")
        assert not outcome.ok
        assert outcome.stats.failed == 1
        good_first, bad, good_last = outcome.results
        assert good_first.kernel_name == "SYRK"
        assert isinstance(bad, JobFailure)
        assert bad.benchmark_name == "NOPE"
        assert good_last.kernel_name == "ATAX"
        assert outcome.failures() == [bad]

    def test_skip_mode_in_pool_preserves_order(self):
        jobs = [
            SimulationRequest("NOPE", "gto", SMALL),
            SimulationRequest("SYRK", "gto", SMALL),
            SimulationRequest("ATAX", "gto", SMALL),
        ]
        outcome = run_jobs(jobs, workers=2, cache=None, on_error="skip")
        assert isinstance(outcome.results[0], JobFailure)
        assert outcome.results[1].kernel_name == "SYRK"
        assert outcome.results[2].kernel_name == "ATAX"


class TestPartialResults:
    """Satellite: a pool-path SweepError must report what survived and
    leave no orphaned worker processes behind."""

    def test_sweep_error_reports_partial_completion(self):
        import multiprocessing
        import time

        jobs = [
            SimulationRequest("SYRK", "gto", SMALL),
            SimulationRequest("ATAX", "gto", SMALL),
            SimulationRequest("NOPE", "gto", SMALL),
        ]
        with pytest.raises(SweepError) as excinfo:
            run_jobs(jobs, workers=2, cache=None)
        err = excinfo.value
        assert err.job.benchmark_name == "NOPE"
        assert isinstance(err.completed, int) and err.completed >= 0
        assert isinstance(err.outstanding, int) and err.outstanding >= 0
        assert "cancelled" in str(err)
        # The pool was force-shut: no orphaned workers linger.
        deadline = time.time() + 10
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="needs >=2 CPUs to demonstrate a speedup")
def test_parallel_sweep_is_faster_than_sequential():
    """Acceptance: >=4 benchmarks x >=3 schedulers, workers>1 beats workers=1."""
    config = RunConfig(scale=0.3, seed=1)
    jobs = [
        SimulationRequest(b, s, config)
        for b in ("ATAX", "SYRK", "BICG", "MVT")
        for s in ("gto", "ccws", "ciao-c")
    ]
    sequential = run_jobs(jobs, workers=1, cache=None)
    parallel = run_jobs(jobs, workers=min(4, os.cpu_count()), cache=None)
    assert all(a == b for a, b in zip(sequential.results, parallel.results))
    assert parallel.stats.wall_seconds < sequential.stats.wall_seconds
