"""Tests for the multi-tenant (co-located) simulation layer.

Covers the :class:`repro.api.TenantSpec` / :class:`MultiTenantRequest`
descriptors, the partitioned lock-step driver's per-tenant statistics, the
sweep-engine / result-cache integration, the co-location scenario library
and the ``repro run --tenants`` / ``--scenario`` CLI surface.

The differential parity contracts (homogeneous tenants == single-kernel
lock-step, one-tenant-one-SM == reference) live in ``tests/test_lockstep.py``;
the pinned bit-exact fixtures in ``tests/test_goldens.py``.
"""

import json

import pytest
from strategies import SMALL, pair_request

from repro.api import (
    MULTI_TENANT_SCHEMA,
    MultiTenantRequest,
    SimulationRequest,
    TenantSpec,
    execute,
)
from repro.analysis.metrics import tenant_slowdowns
from repro.cli import main, parse_tenant_specs
from repro.gpu.gpu import SimulationResult
from repro.gpu.stats import TenantStats
from repro.harness import experiments
from repro.harness.cache import ResultCache
from repro.harness.parallel import SweepError, run_jobs
from repro.scenarios import library

PAIR = pair_request()


# ---------------------------------------------------------------------------
# Request validation and canonicalization
# ---------------------------------------------------------------------------
class TestRequestValidation:
    def test_valid_request_canonicalizes(self):
        canonical = PAIR.canonicalize()
        assert canonical.backend == "lockstep"
        assert canonical.machine_sms() == 2

    def test_alias_resolution(self):
        request = MultiTenantRequest(
            tenants=(
                TenantSpec("a", "atax", "ciao_c", (0,)),
                TenantSpec("b", "syrk", "lrr", (1,)),
            ),
            run_config=SMALL,
        ).canonicalize()
        assert request.tenants[0].benchmark == "ATAX"
        assert request.tenants[0].scheduler == "ciao-c"

    def test_overlapping_partitions_rejected(self):
        with pytest.raises(ValueError, match="assigned to both"):
            MultiTenantRequest(
                tenants=(
                    TenantSpec("a", "ATAX", "gto", (0, 1)),
                    TenantSpec("b", "SYRK", "gto", (1,)),
                ),
                run_config=SMALL,
            ).validate()

    def test_gap_in_partition_rejected_without_total_sms(self):
        with pytest.raises(ValueError, match="contiguously"):
            MultiTenantRequest(
                tenants=(
                    TenantSpec("a", "ATAX", "gto", (0,)),
                    TenantSpec("b", "SYRK", "gto", (2,)),
                ),
                run_config=SMALL,
            ).validate()

    def test_explicit_total_sms_allows_idle_sms(self):
        request = MultiTenantRequest(
            tenants=(TenantSpec("a", "ATAX", "gto", (1,)),),
            run_config=SMALL,
            total_sms=3,
        )
        request.validate()
        assert request.machine_sms() == 3

    def test_sm_ids_beyond_machine_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            MultiTenantRequest(
                tenants=(TenantSpec("a", "ATAX", "gto", (0, 5)),),
                run_config=SMALL,
                total_sms=2,
            ).validate()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MultiTenantRequest(
                tenants=(
                    TenantSpec("a", "ATAX", "gto", (0,)),
                    TenantSpec("a", "SYRK", "gto", (1,)),
                ),
                run_config=SMALL,
            ).validate()

    def test_empty_and_invalid_tenants_rejected(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            MultiTenantRequest(run_config=SMALL).validate()
        with pytest.raises(ValueError, match="owns no SMs"):
            TenantSpec("a", "ATAX", "gto", ()).validate()
        with pytest.raises(ValueError, match="invalid tenant name"):
            TenantSpec("bad,name", "ATAX", "gto", (0,)).validate()
        with pytest.raises(ValueError, match="address space"):
            TenantSpec("a", "ATAX", "gto", (0,), address_space=-1).validate()

    def test_env_backend_does_not_flip_multi_tenant(self, monkeypatch):
        # REPRO_BACKEND=reference (the CI matrix default) must not break
        # co-location: the serialized engine cannot express it.
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert PAIR.resolved_backend() == "lockstep"
        result = execute(
            MultiTenantRequest(
                tenants=(TenantSpec("solo", "ATAX", "gto", (0,)),),
                run_config=SMALL,
            )
        )
        assert result.backend == "lockstep"

    def test_reference_backend_rejects_multi_tenant(self):
        with pytest.raises(ValueError, match="lockstep"):
            execute(
                MultiTenantRequest(
                    tenants=(TenantSpec("solo", "ATAX", "gto", (0,)),),
                    run_config=SMALL,
                    backend="reference",
                )
            )


class TestWireFormat:
    def test_round_trip(self):
        payload = json.loads(json.dumps(PAIR.to_dict()))
        assert payload["schema"] == MULTI_TENANT_SCHEMA
        assert MultiTenantRequest.from_dict(payload) == PAIR

    def test_schema_mismatch_rejected(self):
        payload = PAIR.to_dict()
        payload["schema"] = MULTI_TENANT_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            MultiTenantRequest.from_dict(payload)

    def test_result_round_trip_preserves_per_tenant(self):
        result = execute(PAIR)
        restored = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result
        assert set(restored.per_tenant) == {"left", "right"}
        assert restored.per_tenant["left"].sm_ids == (0,)

    def test_single_kernel_results_omit_empty_per_tenant(self):
        # Schema-1 compatibility: the wire form of single-kernel results is
        # unchanged (goldens and old cache entries stay valid).
        result = execute(SimulationRequest("ATAX", "gto", SMALL))
        assert "per_tenant" not in result.to_dict()["data"]["fields"]


# ---------------------------------------------------------------------------
# Per-tenant statistics
# ---------------------------------------------------------------------------
class TestPerTenantStats:
    @pytest.fixture(scope="class")
    def result(self):
        return execute(PAIR)

    def test_breakdown_identity(self, result):
        assert set(result.per_tenant) == {"left", "right"}
        left = result.per_tenant["left"]
        assert left.benchmark == "ATAX" and left.scheduler == "gto"
        assert left.sm_ids == (0,)
        assert result.per_tenant["right"].scheduler == "ccws"

    def test_instruction_counts_sum_to_machine_total(self, result):
        assert sum(
            t.stats.instructions_issued for t in result.per_tenant.values()
        ) == result.machine.instructions_issued

    def test_conflict_attribution_sums_to_total(self, result):
        assert result.inter_sm_dram_conflicts > 0
        assert sum(
            t.inter_sm_dram_conflicts for t in result.per_tenant.values()
        ) == result.inter_sm_dram_conflicts

    def test_display_names_join_tenants(self, result):
        assert result.kernel_name == "ATAX+SYRK"
        assert result.scheduler_name == "gto+ccws"

    def test_deterministic(self, result):
        assert execute(PAIR) == result


# ---------------------------------------------------------------------------
# Sweep engine and result cache integration
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    def test_run_jobs_mixes_job_types(self):
        jobs = [PAIR, SimulationRequest("ATAX", "gto", SMALL, backend="lockstep")]
        outcome = run_jobs(jobs, workers=1, cache=None)
        assert outcome.results[0].per_tenant
        assert not outcome.results[1].per_tenant
        assert outcome.stats.backend == "lockstep"

    def test_backend_fill_skips_multi_tenant_jobs(self):
        outcome = run_jobs([PAIR], workers=1, cache=None, backend="reference")
        assert outcome.results[0].backend == "lockstep"

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_jobs([PAIR], workers=1, cache=cache)
        warm = run_jobs([PAIR], workers=1, cache=cache)
        assert cold.stats.cache_hits == 0 and warm.stats.cache_hits == 1
        assert warm.results[0] == cold.results[0]
        assert warm.results[0].per_tenant["right"].benchmark == "SYRK"

    def test_unknown_benchmark_surfaces_as_sweep_error(self):
        bad = MultiTenantRequest(
            tenants=(TenantSpec("a", "NOPE", "gto", (0,)),), run_config=SMALL
        )
        with pytest.raises(SweepError):
            run_jobs([bad], workers=1, cache=None)

    def test_parallel_workers_match_in_process(self):
        other = MultiTenantRequest(
            tenants=(
                TenantSpec("x", "SYRK", "gto", (0,), address_space=1),
                TenantSpec("y", "WC", "gto", (1,), address_space=2),
            ),
            run_config=SMALL,
        )
        sequential = run_jobs([PAIR, other], workers=1, cache=None)
        parallel = run_jobs([PAIR, other], workers=2, cache=None)
        assert sequential.results == parallel.results


# ---------------------------------------------------------------------------
# Scenario library and the interference experiment
# ---------------------------------------------------------------------------
class TestScenarioLibrary:
    def test_library_shape(self):
        names = library.colocation_scenario_names()
        assert "thrash-vs-compute" in names
        assert len(names) >= 4

    @pytest.mark.parametrize("name", library.colocation_scenario_names())
    def test_every_scenario_is_well_formed(self, name):
        request = library.colocation_scenario(name)
        canonical = request.canonicalize()
        assert canonical.backend == "lockstep"
        # Tenants model separate processes: distinct address spaces.
        spaces = [t.address_space for t in canonical.tenants]
        assert len(set(spaces)) == len(spaces)
        assert request.cache_key() != PAIR.cache_key()

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            library.colocation_scenario("nope")

    def test_isolated_request_keeps_machine_size(self):
        request = library.colocation_scenario("asymmetric-split")
        isolated = request.isolated_request("narrow")
        assert isolated.machine_sms() == request.machine_sms()
        assert [t.name for t in isolated.tenants] == ["narrow"]

    def test_pinned_thrash_vs_compute_shows_interference(self):
        """Acceptance: the pinned cache-thrasher + compute-bound pair slows
        both tenants beyond their isolated runs, with per-tenant DRAM
        conflict attribution — all derived from one experiment call (the
        same path ``repro run --scenario thrash-vs-compute`` prints)."""
        out = experiments.colocation_interference(
            scenario="thrash-vs-compute", workers=1, cache=None
        )
        assert set(out["per_tenant"]) == {"thrash", "compute"}
        for row in out["per_tenant"].values():
            assert row["slowdown"] > 1.0
            assert row["inter_sm_dram_conflicts"] > 0
        assert out["inter_sm_dram_conflicts"] == sum(
            row["inter_sm_dram_conflicts"] for row in out["per_tenant"].values()
        )
        shares = [row["conflict_share"] for row in out["per_tenant"].values()]
        assert sum(shares) == pytest.approx(1.0)

    def test_slowdown_metric_against_hand_rolled_baselines(self):
        request = library.colocation_scenario("thrash-vs-compute")
        colocated = execute(request)
        isolated = {
            t.name: execute(request.isolated_request(t.name)) for t in request.tenants
        }
        report = tenant_slowdowns(colocated, isolated)
        for name, row in report.items():
            assert row["colocated_cycles"] == colocated.per_tenant[name].finish_cycle
            assert row["slowdown"] == pytest.approx(
                row["colocated_cycles"] / row["isolated_cycles"]
            )


# ---------------------------------------------------------------------------
# Slowdown metric edge cases (synthetic results, no simulation)
# ---------------------------------------------------------------------------
class TestSlowdownEdgeCases:
    """``tenant_slowdowns`` on hand-built results: degenerate inputs stay
    finite (no NaNs, no ZeroDivisionError) and busy spans cancel launch
    offsets exactly."""

    @staticmethod
    def _result(tenants):
        """A synthetic co-located result from {name: (finish, launch, conflicts)}."""
        return SimulationResult(
            kernel_name="synthetic",
            scheduler_name="gto",
            per_tenant={
                name: TenantStats(
                    name=name,
                    finish_cycle=finish,
                    launch_cycle=launch,
                    inter_sm_dram_conflicts=conflicts,
                )
                for name, (finish, launch, conflicts) in tenants.items()
            },
        )

    def test_empty_per_tenant_yields_empty_report(self):
        assert tenant_slowdowns(self._result({}), {}) == {}

    def test_exact_parity_slowdown_is_one(self):
        # Different launch offsets, identical busy spans: exactly 1.0.
        colocated = self._result({"a": (1500, 500, 0)})
        isolated = {"a": self._result({"a": (1300, 300, 0)})}
        row = tenant_slowdowns(colocated, isolated)["a"]
        assert row["slowdown"] == 1.0
        assert row["colocated_cycles"] == 1000.0
        assert row["isolated_cycles"] == 1000.0

    def test_zero_conflicts_share_is_zero_not_nan(self):
        colocated = self._result({"a": (100, 0, 0), "b": (200, 0, 0)})
        isolated = {
            "a": self._result({"a": (100, 0, 0)}),
            "b": self._result({"b": (150, 0, 0)}),
        }
        report = tenant_slowdowns(colocated, isolated)
        for row in report.values():
            assert row["conflict_share"] == 0.0
            assert row["inter_sm_dram_conflicts"] == 0.0

    def test_zero_isolated_cycles_reports_zero_slowdown(self):
        colocated = self._result({"a": (100, 0, 0)})
        isolated = {"a": self._result({"a": (700, 700, 0)})}
        assert tenant_slowdowns(colocated, isolated)["a"]["slowdown"] == 0.0

    def test_single_kernel_baseline_uses_machine_clock(self):
        from repro.gpu.stats import SMStats

        colocated = self._result({"a": (800, 0, 3)})
        baseline = SimulationResult(
            kernel_name="ATAX", scheduler_name="gto", per_sm=[SMStats(cycles=400)]
        )
        row = tenant_slowdowns(colocated, {"a": baseline})["a"]
        assert row["isolated_cycles"] == 400.0
        assert row["slowdown"] == 2.0
        assert row["conflict_share"] == 1.0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCLI:
    def test_parse_tenant_specs(self):
        tenants = parse_tenant_specs("SM:0-1,compute=2DCONV/ciao_c:2")
        assert tenants[0].name == "SM" and tenants[0].sm_ids == (0, 1)
        assert tenants[1].name == "compute"
        assert tenants[1].scheduler == "ciao-c"  # alias canonicalised
        assert [t.address_space for t in tenants] == [1, 2]

    def test_parse_tenant_specs_dedupes_names(self):
        tenants = parse_tenant_specs("ATAX:0,ATAX:1")
        assert [t.name for t in tenants] == ["ATAX", "ATAX-2"]

    def test_parse_tenant_specs_launch_cycles(self):
        tenants = parse_tenant_specs("SM:0-1@250,2DCONV/ciao_c:2")
        assert tenants[0].launch_cycle == 250
        assert tenants[0].sm_ids == (0, 1)
        assert tenants[1].launch_cycle == 0  # @CYCLE defaults to 0

    @pytest.mark.parametrize("spec", ["ATAX", "ATAX:x-y", "ATAX:3-1", ":0",
                                      "ATAX:0-", "ATAX:-1", "ATAX:0@",
                                      "ATAX:0@-5", "ATAX:0@x"])
    def test_parse_tenant_specs_rejects_garbage(self, spec):
        with pytest.raises(ValueError):
            parse_tenant_specs(spec)

    def test_scenario_pinned_seed_reaches_the_cli_run(self, capsys, monkeypatch):
        # A scenario's pinned seed must survive a bare CLI invocation (the
        # --seed default is None on `repro run`, not 1).
        import dataclasses

        pinned = dataclasses.replace(
            library.COLOCATION_SCENARIOS["thrash-vs-compute"],
            name="pinned-seed",
            scale=0.05,
            seed=7,
        )
        monkeypatch.setitem(library.COLOCATION_SCENARIOS, "pinned-seed", pinned)
        rc = main(["run", "--scenario", "pinned-seed", "--no-cache", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 7 and data["scale"] == pytest.approx(0.05)

    def test_run_tenants_json(self, capsys):
        rc = main(["run", "--tenants", "ATAX:0,SYRK/ccws:1", "--scale", "0.05",
                   "--no-cache", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "lockstep"
        assert [row["tenant"] for row in data["tenants"]] == ["ATAX", "SYRK"]
        assert data["inter_sm_dram_conflicts"] == sum(
            row["dram_conflicts"] for row in data["tenants"]
        )

    def test_run_scenario_reports_slowdown(self, capsys):
        rc = main(["run", "--scenario", "thrash-vs-compute", "--no-cache", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "thrash-vs-compute"
        assert data["scale"] == pytest.approx(0.1)  # the scenario's pinned scale
        for row in data["tenants"]:
            assert row["slowdown"] > 1.0
            assert row["dram_conflicts"] > 0

    def test_run_tenants_staggered_json(self, capsys):
        rc = main(["run", "--tenants", "ATAX:0@200,SYRK/ccws:1", "--scale", "0.05",
                   "--no-cache", "--json", "--isolated"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        staggered = data["tenants"][0]
        assert staggered["launch"] == 200
        # Slowdown compares busy spans, so the dormant prefix cancels.
        assert data["per_tenant"]["ATAX"]["colocated_cycles"] == (
            staggered["cycles"] - 200
        )

    def test_run_tenants_isolated_table(self, capsys):
        rc = main(["run", "--tenants", "SM:0,2DCONV:1", "--isolated",
                   "--scale", "0.1", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slowdown" in out and "inter-SM DRAM conflicts" in out

    def test_list_scenarios(self, capsys):
        assert main(["list", "--scenarios"]) == 0
        out = capsys.readouterr().out
        for name in library.colocation_scenario_names():
            assert name in out

    def test_list_mentions_scenarios(self, capsys):
        assert main(["list"]) == 0
        assert "thrash-vs-compute" in capsys.readouterr().out

    def test_errors_exit_cleanly(self, capsys):
        assert main(["run", "--tenants", "ATAX:0", "--scenario", "x"]) == 2
        assert main(["run", "ATAX", "--tenants", "ATAX:0", "--no-cache"]) == 2
        assert main(["run", "--no-cache"]) == 2
        assert main(["run", "ATAX", "--isolated", "--no-cache"]) == 2
        assert main(["run", "--tenants", "ATAX:0,SYRK:0", "--no-cache"]) == 2
        assert main(["run", "--tenants", "garbage", "--no-cache"]) == 2
        assert main(["run", "--scenario", "nope", "--no-cache"]) == 2
