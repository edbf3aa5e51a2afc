"""Tests for the lock-step multi-SM backend (repro.gpu.lockstep)."""

import pytest

from repro.api import (
    MultiTenantRequest,
    RunConfig,
    SimulationRequest,
    TenantSpec,
    execute,
    result_digest,
)
from repro.backends import materialize
from repro.gpu.config import GPUConfig
from repro.gpu.lockstep import run_lockstep
from repro.harness.parallel import run_jobs
from repro.harness.runner import run_benchmark

SMALL = dict(scale=0.05, seed=1)


def _pair(benchmark, scheduler, **overrides):
    ref = run_benchmark(benchmark, scheduler, backend="reference", **SMALL, **overrides)
    lock = run_benchmark(benchmark, scheduler, backend="lockstep", **SMALL, **overrides)
    return ref, lock


def _without_backend(result):
    payload = result.to_dict()
    payload["data"]["fields"].pop("backend")
    return payload


class TestSingleSMParity:
    """At num_sms=1 the lock-step loop must reduce exactly to the serialized
    loop: every counter, stall, time series and interference matrix is
    bit-for-bit identical (only the recorded backend name differs)."""

    @pytest.mark.parametrize("scheduler", ["gto", "ccws", "best-swl", "ciao-c"])
    def test_bit_for_bit_across_schedulers(self, scheduler):
        ref, lock = _pair("ATAX", scheduler)
        assert _without_backend(ref) == _without_backend(lock)

    @pytest.mark.parametrize("bench", ["SYRK", "WC", "Backprop"])
    def test_bit_for_bit_across_workload_classes(self, bench):
        ref, lock = _pair(bench, "gto")
        assert _without_backend(ref) == _without_backend(lock)

    def test_parity_with_cycle_budget(self):
        ref, lock = _pair("SYRK", "gto", max_cycles=5_000)
        assert _without_backend(ref) == _without_backend(lock)

    def test_single_sm_has_no_inter_sm_conflicts(self):
        _, lock = _pair("ATAX", "gto")
        assert lock.inter_sm_dram_conflicts == 0


class TestMultiSM:
    CONFIG = RunConfig(scale=0.05, seed=1, gpu_config=GPUConfig.gtx480(num_sms=2))

    def test_lockstep_observes_inter_sm_dram_contention(self):
        result = run_benchmark("ATAX", "gto", self.CONFIG, backend="lockstep")
        assert len(result.per_sm) == 2
        assert result.inter_sm_dram_conflicts > 0

    def test_sms_finish_together_not_serially(self):
        # In the serialized mode SM1 only starts once SM0 finished, so its
        # recorded cycle count balloons; in lock step both SMs share the
        # clock and finish within a whisker of each other.
        lock = run_benchmark("ATAX", "gto", self.CONFIG, backend="lockstep")
        cycles = [stats.cycles for stats in lock.per_sm]
        assert max(cycles) < 1.05 * min(cycles)

    def test_serialized_mode_underestimates_contention(self):
        # The whole point of the lock-step engine: SMs simulated one after
        # another almost never observe another SM's in-flight DRAM bursts,
        # while interleaved SMs genuinely queue behind each other.
        ref = run_benchmark("ATAX", "gto", self.CONFIG, backend="reference")
        lock = run_benchmark("ATAX", "gto", self.CONFIG, backend="lockstep")
        assert lock.inter_sm_dram_conflicts > ref.inter_sm_dram_conflicts

    def test_lockstep_is_deterministic(self):
        a = run_benchmark("SYRK", "ccws", self.CONFIG, backend="lockstep")
        b = run_benchmark("SYRK", "ccws", self.CONFIG, backend="lockstep")
        assert a == b


class TestMultiSMOracle:
    """Single-kernel multi-SM lockstep == the same driver over reference SMs.

    Production SMs sleep through blocked cycles and run alone in batched
    stretches; plain reference SMs take the driver's per-cycle branch.  The
    two must digest identically, for sticky (gto, two-level) and non-sticky
    (statpcal, lrr) schedulers alike.
    """

    @pytest.mark.parametrize("num_sms", [2, 4])
    @pytest.mark.parametrize("scheduler", ["gto", "two-level", "statpcal", "lrr"])
    @pytest.mark.parametrize("bench", ["ATAX", "KMN"])
    def test_matches_reference_sm_oracle(self, bench, scheduler, num_sms):
        request = SimulationRequest(
            bench,
            scheduler,
            run_config=RunConfig(
                scale=0.03, seed=1, gpu_config=GPUConfig.gtx480(num_sms=num_sms)
            ),
            backend="lockstep",
        )
        production = execute(request)
        scheduler_name, kernel, gpu, config = materialize(request)
        oracle = run_lockstep(
            gpu, kernel, max_cycles=config.max_cycles, scheduler_name=scheduler_name
        )
        assert result_digest(production.to_dict()) == result_digest(oracle.to_dict())


def _strip_tenant_fields(result):
    """A multi-tenant result's payload minus the tenant-only decorations."""
    payload = result.to_dict()
    payload["data"]["fields"].pop("per_tenant", None)
    return payload


class TestMultiTenantParity:
    """Differential contracts of the partitioned driver.

    Tenants at the default address-space colour 0 share the kernel's
    natural addresses, so a partition in which every tenant runs the same
    kernel and scheduler must reduce *exactly* to the single-kernel paths.
    """

    @pytest.mark.parametrize("scheduler", ["gto", "ccws", "ciao-c"])
    def test_homogeneous_tenants_match_single_kernel_lockstep(self, scheduler):
        # Two tenants x one SM, same kernel/scheduler everywhere == one
        # kernel launched on a 2-SM lock-step machine, bit for bit.
        single = run_benchmark(
            "ATAX",
            scheduler,
            RunConfig(scale=0.05, seed=1, gpu_config=GPUConfig.gtx480(num_sms=2)),
            backend="lockstep",
        )
        multi = execute(
            MultiTenantRequest(
                tenants=(
                    TenantSpec("a", "ATAX", scheduler, (0,)),
                    TenantSpec("b", "ATAX", scheduler, (1,)),
                ),
                run_config=RunConfig(scale=0.05, seed=1),
            )
        )
        assert multi.per_tenant  # it really took the partitioned path
        assert _strip_tenant_fields(multi) == _strip_tenant_fields(single)

    def test_one_tenant_one_sm_matches_reference_backend(self):
        ref = run_benchmark("ATAX", "gto", backend="reference", **SMALL)
        multi = execute(
            MultiTenantRequest(
                tenants=(TenantSpec("solo", "ATAX", "gto", (0,)),),
                run_config=RunConfig(**SMALL),
            )
        )
        ref_payload = _strip_tenant_fields(ref)
        multi_payload = _strip_tenant_fields(multi)
        ref_payload["data"]["fields"].pop("backend")
        multi_payload["data"]["fields"].pop("backend")
        assert multi_payload == ref_payload

    def test_tenant_partition_changes_contention(self):
        # Same tenants, different SM split: a genuine semantic knob, so the
        # simulations must not collapse to the same outcome.
        def run(split_a, split_b):
            return execute(
                MultiTenantRequest(
                    tenants=(
                        TenantSpec("a", "ATAX", "gto", split_a, address_space=1),
                        TenantSpec("b", "SYRK", "gto", split_b, address_space=2),
                    ),
                    run_config=RunConfig(**SMALL),
                )
            )

        narrow = run((0,), (1, 2))
        wide = run((0, 1), (2,))
        assert narrow.per_tenant["a"].stats.instructions_issued < (
            wide.per_tenant["a"].stats.instructions_issued
        )

    def test_finished_tenant_goes_idle_while_others_run(self):
        # 2DCONV (compute-bound) drains long before the SM thrasher; its
        # finish_cycle must seal early while the machine keeps running.
        result = execute(
            MultiTenantRequest(
                tenants=(
                    TenantSpec("thrash", "SM", "gto", (0,), address_space=1),
                    TenantSpec("compute", "2DCONV", "gto", (1,), address_space=2),
                ),
                run_config=RunConfig(scale=0.1, seed=1),
            )
        )
        thrash = result.per_tenant["thrash"]
        compute = result.per_tenant["compute"]
        assert compute.finish_cycle < thrash.finish_cycle
        assert result.machine.cycles == thrash.finish_cycle


class TestTraceIntern:
    def test_tenant_traces_live_in_the_intern(self, monkeypatch):
        """Tenant traces are interned per (kernel, address colour).

        A co-located request and its isolated baselines pack one
        ``KernelTrace`` per distinct (benchmark, colour), and running them
        again packs none.  The finished SMs hold no reference, so with the
        cyclic collector off, clearing the intern frees every trace: each SM
        sits in a reference cycle with its scheduler, and only the SMs
        dropping their trace tables lets plain reference counting do it.
        """
        import gc
        import weakref

        from repro.gpu.vector.trace import KernelTrace, clear_trace_cache

        built = []
        init = KernelTrace.__init__

        def recording_init(self, kernel):
            init(self, kernel)
            built.append(weakref.ref(self))

        monkeypatch.setattr(KernelTrace, "__init__", recording_init)
        request = MultiTenantRequest(
            tenants=(
                TenantSpec("a", "ATAX", "gto", (0, 1), address_space=1),
                TenantSpec("b", "SYRK", "ciao-c", (2,), address_space=2),
                # The same kernel in the same colour shares a's trace; in
                # another colour it is a distinct identity.
                TenantSpec("c", "ATAX", "ccws", (3,), address_space=1),
                TenantSpec("d", "ATAX", "gto", (4,), address_space=3),
            ),
            run_config=RunConfig(**SMALL),
        )
        jobs = [request, *(request.isolated_request(t.name) for t in request.tenants)]
        clear_trace_cache()
        gc.disable()
        try:
            for job in jobs:
                execute(job)
            assert len(built) == 3
            for job in jobs:
                execute(job)
            assert len(built) == 3
            assert all(ref() is not None for ref in built)
            clear_trace_cache()
            assert [ref() for ref in built] == [None] * len(built)
        finally:
            gc.enable()


class TestEngineIntegration:
    def test_sweep_engine_runs_lockstep_jobs(self):
        jobs = [
            SimulationRequest("ATAX", "gto", RunConfig(**SMALL), backend="lockstep"),
            SimulationRequest("SYRK", "gto", RunConfig(**SMALL), backend="reference"),
        ]
        outcome = run_jobs(jobs, workers=1, cache=None)
        assert outcome.results[0].backend == "lockstep"
        assert outcome.results[1].backend == "reference"
        assert "lockstep" in outcome.stats.backend
        assert "reference" in outcome.stats.backend

    def test_run_jobs_backend_argument_fills_unpinned_jobs(self):
        jobs = [SimulationRequest("ATAX", "gto", RunConfig(**SMALL))]
        outcome = run_jobs(jobs, workers=1, cache=None, backend="lockstep")
        assert outcome.results[0].backend == "lockstep"

    def test_cached_lockstep_results_round_trip(self, tmp_path):
        from repro.harness.cache import ResultCache

        cache = ResultCache(tmp_path)
        jobs = [SimulationRequest("ATAX", "gto", RunConfig(**SMALL), backend="lockstep")]
        cold = run_jobs(jobs, workers=1, cache=cache)
        warm = run_jobs(jobs, workers=1, cache=cache)
        assert warm.stats.cache_hits == 1
        assert warm.results[0] == cold.results[0]
        assert warm.results[0].backend == "lockstep"

    def test_backends_never_share_cache_entries(self, tmp_path):
        from repro.harness.cache import ResultCache

        cache = ResultCache(tmp_path)
        ref_job = SimulationRequest("ATAX", "gto", RunConfig(**SMALL), backend="reference")
        lock_job = SimulationRequest("ATAX", "gto", RunConfig(**SMALL), backend="lockstep")
        run_jobs([ref_job], workers=1, cache=cache)
        outcome = run_jobs([lock_job], workers=1, cache=cache)
        assert outcome.stats.cache_hits == 0
        assert outcome.results[0].backend == "lockstep"

    def test_parallel_workers_match_in_process(self):
        jobs = [
            SimulationRequest(b, "gto", RunConfig(**SMALL), backend="lockstep")
            for b in ("ATAX", "SYRK")
        ]
        sequential = run_jobs(jobs, workers=1, cache=None)
        parallel = run_jobs(jobs, workers=2, cache=None)
        for seq, par in zip(sequential.results, parallel.results):
            assert seq == par

    def test_experiment_accepts_backend(self):
        from repro.harness import experiments

        out = experiments.fig1_bestswl_vs_ccws(
            scale=0.05, seed=1, workers=1, cache=None, backend="lockstep"
        )
        assert out["engine"]["backend"] == "lockstep"
