"""Tests for seeded fault injection and sweep recovery.

Covers the chaos backend (``repro.harness.faults``) and the resilience
paths in the sweep engine it exists to exercise: retry with backoff,
``on_error="skip"`` failure slots, and worker-crash recovery (the
``BrokenProcessPool`` contract — recover under ``retry`` or raise a
``SweepError`` naming the lost job, never a bare pool traceback).
"""

import pytest

from repro.api import SimulationRequest
from repro.backends import BackendUnavailableError, get_backend
from repro.harness.faults import (
    FAULT_KINDS,
    ChaosBackend,
    ChaosUnconfiguredError,
    FaultPlan,
    InjectedFault,
    active_plan,
    configure_chaos,
    fault_key_for,
)
from repro.harness.parallel import (
    JobFailure,
    RetryPolicy,
    SweepError,
    run_jobs,
)
from repro.harness.runner import RunConfig

SMALL = RunConfig(scale=0.02, seed=1)

# A fast retry policy for tests: no real backoff sleeps.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def clean_chaos(monkeypatch):
    """Every test starts and ends with no active fault plan."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    configure_chaos(None)
    yield
    configure_chaos(None)


def _jobs(backend=None, benchmarks=("SYRK", "ATAX"), schedulers=("gto", "ciao-c")):
    return [
        SimulationRequest(b, s, SMALL, backend=backend)
        for b in benchmarks
        for s in schedulers
    ]


class TestFaultPlan:
    def test_schedule_is_deterministic(self):
        a = FaultPlan(seed=7, rate=0.5)
        b = FaultPlan(seed=7, rate=0.5)
        draws = [(f"key{i}", attempt) for i in range(50) for attempt in (1, 2)]
        assert [a.fault_for(k, n) for k, n in draws] == \
            [b.fault_for(k, n) for k, n in draws]
        # A different seed reshuffles the schedule (some draw must differ).
        c = FaultPlan(seed=8, rate=0.5)
        assert [a.fault_for(k, n) for k, n in draws] != \
            [c.fault_for(k, n) for k, n in draws]

    def test_rate_bounds(self):
        silent = FaultPlan(seed=1, rate=0.0)
        assert all(silent.fault_for(f"k{i}", 1) is None for i in range(20))
        noisy = FaultPlan(seed=1, rate=1.0)
        kinds = {noisy.fault_for(f"k{i}", 1) for i in range(20)}
        assert kinds <= set(FAULT_KINDS) and None not in kinds

    def test_only_attempts_gates_the_schedule(self):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("fail",), only_attempts=(1,))
        assert plan.fault_for("k", 1) == "fail"
        assert plan.fault_for("k", 2) is None

    def test_scheduled_kinds_counts(self):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("fail",))
        counts = plan.scheduled_kinds(["a", "b"], attempts=2)
        assert counts == {"fail": 4}

    def test_spec_round_trip(self):
        plan = FaultPlan(seed=7, rate=0.25, kinds=("fail", "hang"))
        again = FaultPlan.from_spec(plan.to_spec())
        assert (again.seed, again.rate, again.kinds) == (7, 0.25, ("fail", "hang"))
        default_kinds = FaultPlan.from_spec("3:0.1")
        assert default_kinds.kinds == FAULT_KINDS

    def test_bad_specs_and_values_rejected(self):
        for spec in ("", "7", "x:0.2", "7:y", "7:0.2:fail:extra"):
            with pytest.raises(ValueError):
                FaultPlan.from_spec(spec)
        with pytest.raises(ValueError):
            FaultPlan(rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(kinds=("explode",))

    def test_fault_key_is_stable_across_code_versions(self):
        # Fault keys use a pinned code version, so they differ from the
        # result-cache key (which fingerprints the source tree).
        job = SimulationRequest("ATAX", "gto", SMALL)
        assert fault_key_for(job) == fault_key_for(job)
        assert fault_key_for(job) != job.cache_key()


class TestChaosBackend:
    def test_unconfigured_is_a_clean_error(self):
        with pytest.raises(ChaosUnconfiguredError, match="fault plan"):
            ChaosBackend()
        # Through the registry the same condition is a BackendUnavailableError
        # (what `repro run --backend chaos` reports instead of a traceback).
        with pytest.raises(BackendUnavailableError, match="fault plan"):
            get_backend("chaos")

    def test_env_round_trip_configures_workers(self, monkeypatch):
        configure_chaos(FaultPlan(seed=9, rate=0.3))
        import os

        assert os.environ["REPRO_CHAOS"] == "9:0.3"
        # A fresh process would rebuild the plan from the env mirror.
        configure_chaos(None, mirror_env=False)
        monkeypatch.setenv("REPRO_CHAOS", "9:0.3")
        plan = active_plan()
        assert plan is not None and plan.seed == 9 and plan.rate == 0.3

    def test_zero_rate_is_a_transparent_wrapper(self):
        configure_chaos(FaultPlan(seed=1, rate=0.0))
        job = SimulationRequest("ATAX", "gto", SMALL)
        via_chaos = ChaosBackend().execute(job)
        # The wrapper delegates to the REPRO_BACKEND engine, so compare
        # against that same delegate, not a fixed one.
        direct = get_backend().execute(job)
        assert via_chaos == direct

    def test_fail_kind_raises_injected_fault(self):
        configure_chaos(FaultPlan(seed=1, rate=1.0, kinds=("fail",)))
        with pytest.raises(InjectedFault, match="ATAX/gto"):
            ChaosBackend().execute(SimulationRequest("ATAX", "gto", SMALL))

    def test_crash_downgraded_in_main_process(self):
        configure_chaos(FaultPlan(seed=1, rate=1.0, kinds=("crash",)))
        with pytest.raises(InjectedFault, match="downgraded"):
            ChaosBackend().execute(SimulationRequest("ATAX", "gto", SMALL))

    def test_self_delegation_refused(self):
        configure_chaos(FaultPlan(seed=1, rate=0.0, delegate="chaos"))
        with pytest.raises(ValueError, match="delegate"):
            ChaosBackend().execute(SimulationRequest("ATAX", "gto", SMALL))


class TestSweepRecovery:
    """The resilience layer recovering from injected faults."""

    def _fault_free(self):
        return run_jobs(_jobs(), workers=1, cache=None)

    def test_retry_recovers_bit_identical_in_process(self):
        reference = self._fault_free()
        # Every job fails exactly once (attempt 1), then succeeds.
        configure_chaos(
            FaultPlan(seed=1, rate=1.0, kinds=("fail",), only_attempts=(1,))
        )
        chaotic = run_jobs(
            _jobs(backend="chaos"), workers=1, cache=None,
            on_error="retry", retry=FAST_RETRY,
        )
        assert chaotic.ok
        assert chaotic.results == reference.results  # bit-identical recovery
        assert chaotic.stats.retried == len(reference.results)
        assert chaotic.stats.failed == 0

    def test_retry_recovers_bit_identical_in_pool(self):
        reference = self._fault_free()
        configure_chaos(
            FaultPlan(seed=1, rate=1.0, kinds=("fail",), only_attempts=(1,))
        )
        chaotic = run_jobs(
            _jobs(backend="chaos"), workers=2, cache=None,
            on_error="retry", retry=FAST_RETRY,
        )
        assert chaotic.ok
        assert chaotic.results == reference.results
        assert chaotic.stats.failed == 0 and chaotic.stats.retried >= 1

    def test_skip_mode_yields_failures_in_submission_order(self):
        # rate=1.0 with no attempt gate: every attempt of every job fails.
        configure_chaos(FaultPlan(seed=1, rate=1.0, kinds=("fail",)))
        jobs = _jobs(backend="chaos")
        outcome = run_jobs(jobs, workers=1, cache=None, on_error="skip")
        assert not outcome.ok
        assert outcome.stats.failed == len(jobs)
        failures = outcome.failures()
        assert len(failures) == len(jobs)
        for job, slot in zip(jobs, outcome.results):
            assert isinstance(slot, JobFailure)
            assert slot.benchmark_name == job.benchmark_name
            assert slot.scheduler == job.scheduler
            assert slot.error_type == "InjectedFault"

    def test_raise_mode_exhausted_retries_raise_sweep_error(self):
        configure_chaos(FaultPlan(seed=1, rate=1.0, kinds=("fail",)))
        with pytest.raises(SweepError, match="SYRK"):
            run_jobs(_jobs(backend="chaos"), workers=1, cache=None)

    def test_worker_crash_recovers_under_retry(self):
        """Satellite: a BrokenProcessPool mid-sweep must be survivable."""
        reference = self._fault_free()
        configure_chaos(
            FaultPlan(seed=1, rate=1.0, kinds=("crash",), only_attempts=(1,))
        )
        chaotic = run_jobs(
            _jobs(backend="chaos"), workers=2, cache=None,
            on_error="retry", retry=FAST_RETRY,
        )
        assert chaotic.ok
        assert chaotic.results == reference.results
        assert chaotic.stats.failed == 0 and chaotic.stats.retried >= 1

    def test_worker_crash_in_raise_mode_names_the_lost_job(self):
        """Never a bare BrokenProcessPool traceback: SweepError names a job."""
        from concurrent.futures.process import BrokenProcessPool

        configure_chaos(
            FaultPlan(seed=1, rate=1.0, kinds=("crash",), only_attempts=(1,))
        )
        with pytest.raises(SweepError) as excinfo:
            run_jobs(_jobs(backend="chaos"), workers=2, cache=None,
                     on_error="raise")
        assert not isinstance(excinfo.value, BrokenProcessPool)
        # The error identifies which job the pool died under.
        assert excinfo.value.job is not None
        assert excinfo.value.job.benchmark_name in ("SYRK", "ATAX")

    def test_hung_job_times_out_and_recovers(self):
        """A hang past timeout_seconds is abandoned and re-dispatched."""
        reference = self._fault_free()
        # Attempt 1 of every job hangs well past the deadline; attempt 2
        # runs clean.
        configure_chaos(
            FaultPlan(seed=1, rate=1.0, kinds=("hang",), hang_seconds=5.0,
                      only_attempts=(1,))
        )
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0,
                             timeout_seconds=1.0)
        chaotic = run_jobs(
            _jobs(backend="chaos"), workers=2, cache=None,
            on_error="retry", retry=policy,
        )
        assert chaotic.ok
        assert chaotic.results == reference.results
        assert chaotic.stats.timed_out >= 1
        assert chaotic.stats.failed == 0

    def test_straggler_duplicated_first_result_wins(self):
        reference = self._fault_free()
        jobs = _jobs(backend="chaos")
        keys = [fault_key_for(job) for job in jobs]
        # Straggler rescue needs an idle worker, so exactly ONE job may
        # hang.  The schedule is a pure function of the seed: scan for one
        # where precisely one job hangs on attempt 1 and nothing faults on
        # attempt 2 (the duplicate dispatch).
        def hangs(seed):
            plan = FaultPlan(seed=seed, rate=0.3, kinds=("hang",),
                             hang_seconds=20.0, only_attempts=(1,))
            return [k for k in keys if plan.fault_for(k, 1) == "hang"]

        seed = next(s for s in range(1, 500) if len(hangs(s)) == 1)
        configure_chaos(
            FaultPlan(seed=seed, rate=0.3, kinds=("hang",),
                      hang_seconds=20.0, only_attempts=(1,))
        )
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0,
                             straggler_seconds=0.3)
        chaotic = run_jobs(
            jobs, workers=2, cache=None, on_error="retry", retry=policy,
        )
        assert chaotic.ok
        assert chaotic.results == reference.results
        # The duplicate dispatch is accounted as a retry, and its fast
        # result won long before the 20s hang would have finished.
        assert chaotic.stats.retried >= 1
        assert chaotic.stats.wall_seconds < 15.0

    def test_worker_crash_skip_mode_still_completes_the_sweep(self):
        # Infrastructure failure is not job failure: skip mode re-dispatches
        # jobs lost to a dead worker rather than writing them off.
        reference = self._fault_free()
        configure_chaos(
            FaultPlan(seed=1, rate=1.0, kinds=("crash",), only_attempts=(1,))
        )
        outcome = run_jobs(
            _jobs(backend="chaos"), workers=2, cache=None, on_error="skip",
        )
        assert outcome.ok
        assert outcome.results == reference.results
