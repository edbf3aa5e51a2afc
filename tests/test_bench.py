"""Tests for the perf harness (repro.harness.bench)."""

import json

import pytest

from repro.harness import bench as bench_mod
from repro.harness.bench import (
    BENCH_SCHEMA,
    BenchCase,
    bench_matrix,
    compare_reports,
    load_report,
    record_bench,
    run_bench,
    run_case,
    write_report,
)
from repro.harness.ledger import read_ledger, summarize_ledger

#: A deliberately tiny case so the whole module stays fast.
TINY = BenchCase(benchmark="ATAX", scheduler="gto", scale=0.02, seed=1)


class TestMatrix:
    def test_standard_matrix_shape(self):
        cases = bench_matrix()
        assert len(cases) == len(bench_mod.STANDARD_BENCHMARKS) * len(
            bench_mod.STANDARD_SCHEDULERS
        )
        assert all(c.backend == "reference" for c in cases)
        assert all(c.scale == bench_mod.STANDARD_SCALE for c in cases)

    def test_quick_matrix_is_a_smoke_subset(self):
        quick = bench_matrix(quick=True)
        assert len(quick) < len(bench_matrix())
        assert all(c.scale == bench_mod.QUICK_SCALE for c in quick)

    def test_overrides(self):
        cases = bench_matrix(
            benchmarks=["SYRK"], schedulers=["lrr"], scale=0.1, backend="lockstep"
        )
        assert cases == [
            BenchCase(benchmark="SYRK", scheduler="lrr", backend="lockstep", scale=0.1)
        ]

    def test_quick_matrix_gates_vector_when_available(self):
        """The pinned quick matrix carries a vector smoke case."""
        quick = bench_matrix(quick=True)
        vector_cases = [c for c in quick if c.backend == "vector"]
        assert len(vector_cases) == 1
        assert vector_cases[0].scenario is None
        # A quick matrix already *on* the vector backend does not duplicate it.
        all_vector = bench_matrix(quick=True, backend="vector")
        assert sum(1 for c in all_vector if c.backend == "vector") == len(
            all_vector
        ) - 1  # every grid case + the lockstep co-location scenario


class TestRun:
    def test_run_case_measures_cycles_per_second(self):
        measured = run_case(TINY)
        assert measured["cycles"] > 0
        assert measured["wall_seconds"] > 0
        assert measured["cycles_per_second"] == pytest.approx(
            measured["cycles"] / measured["wall_seconds"], rel=1e-3
        )
        assert measured["backend"] == "reference"

    def test_run_case_on_unavailable_engine_is_a_clean_error(self):
        """An engine that cannot run here (chaos without a fault plan) fails
        the case with the registry's explanation."""
        from repro.backends import BackendUnavailableError

        case = BenchCase(benchmark="ATAX", scheduler="gto", backend="chaos", scale=0.02)
        with pytest.raises(BackendUnavailableError, match="fault plan"):
            run_case(case)

    def test_run_case_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            run_case(TINY, repeats=0)

    def test_run_bench_report_envelope(self):
        report = run_bench([TINY], warmup=False)
        assert report["schema"] == BENCH_SCHEMA
        assert report["kind"] == "BenchReport"
        assert len(report["cases"]) == 1
        aggregate = report["aggregate"]
        assert aggregate["cycles"] == report["cases"][0]["cycles"]
        assert aggregate["cycles_per_second"] > 0

    def test_run_bench_requires_cases(self):
        with pytest.raises(ValueError):
            run_bench([])


class TestReportIO:
    def test_write_and_load_report(self, tmp_path):
        report = run_bench([TINY], warmup=False)
        path = write_report(report, tmp_path)
        assert path.name == f"BENCH_{report['rev']}.json"
        assert load_report(path)["aggregate"] == report["aggregate"]

    def test_load_report_rejects_foreign_payloads(self, tmp_path):
        bogus = tmp_path / "BENCH_x.json"
        bogus.write_text(json.dumps({"kind": "SomethingElse"}))
        with pytest.raises(ValueError):
            load_report(bogus)
        bogus.write_text(json.dumps({"kind": "BenchReport", "schema": 999}))
        with pytest.raises(ValueError):
            load_report(bogus)

    def test_record_bench_appends_ledger_line(self, tmp_path):
        report = run_bench([TINY], warmup=False)
        ledger = tmp_path / "ledger.jsonl"
        assert record_bench(report, path=ledger) == ledger
        entries = read_ledger(ledger)
        assert len(entries) == 1
        assert entries[0]["kind"] == "bench"
        assert entries[0]["cycles_per_second"] == report["aggregate"]["cycles_per_second"]

    def test_summarize_ledger_separates_bench_from_sweeps(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        report = run_bench([TINY], warmup=False)
        record_bench(report, path=ledger)
        record_bench(report, path=ledger)
        summary = summarize_ledger(read_ledger(ledger))
        assert summary["bench_runs"] == 2
        assert summary["sweeps"] == 0  # bench entries are not sweeps
        assert summary["bench_latest_cycles_per_second"] > 0
        assert summary["bench_best_cycles_per_second"] >= (
            summary["bench_latest_cycles_per_second"]
        )


class TestBaselineGate:
    def _report_with_cps(self, cps):
        case = {
            "benchmark": "ATAX", "scheduler": "gto", "backend": "reference",
            "scale": 0.02, "seed": 1,
            "wall_seconds": 1.0, "cycles": int(cps), "cycles_per_second": cps,
        }
        return {
            "schema": BENCH_SCHEMA, "kind": "BenchReport", "rev": "x",
            "cases": [case],
            "aggregate": {"wall_seconds": 1.0, "cycles": int(cps), "cycles_per_second": cps},
        }

    def test_no_regression_within_tolerance(self):
        current, baseline = self._report_with_cps(80.0), self._report_with_cps(100.0)
        assert compare_reports(current, baseline, tolerance=0.30) == []

    def test_regression_beyond_tolerance_is_reported(self):
        current, baseline = self._report_with_cps(60.0), self._report_with_cps(100.0)
        problems = compare_reports(current, baseline, tolerance=0.30)
        assert problems and any("ATAX/gto" in p for p in problems)

    def test_unmatched_cases_are_ignored(self):
        current = self._report_with_cps(10.0)
        baseline = self._report_with_cps(100.0)
        baseline["cases"][0]["benchmark"] = "SYRK"  # no overlap
        assert compare_reports(current, baseline) == []

    def test_bad_tolerance_rejected(self):
        report = self._report_with_cps(1.0)
        with pytest.raises(ValueError):
            compare_reports(report, report, tolerance=1.5)

    def test_case_deltas_reports_speedups(self):
        current, baseline = self._report_with_cps(150.0), self._report_with_cps(100.0)
        deltas = bench_mod.case_deltas(current, baseline)
        assert len(deltas) == 1
        assert deltas[0]["speedup"] == pytest.approx(1.5)
        assert deltas[0]["delta_pct"] == pytest.approx(50.0)
        assert deltas[0]["baseline_cycles_per_second"] == 100.0

    def test_case_deltas_tolerates_cases_missing_from_baseline(self):
        """New cases (e.g. a vector row) get None fields, never an error."""
        current = self._report_with_cps(150.0)
        current["cases"][0]["backend"] = "vector"  # the baseline predates it
        baseline = self._report_with_cps(100.0)
        deltas = bench_mod.case_deltas(current, baseline)
        assert deltas[0]["baseline_cycles_per_second"] is None
        assert deltas[0]["speedup"] is None
        # ...and the regression gate ignores the unmatched case entirely.
        assert compare_reports(current, baseline) == []

    def test_checked_in_ci_baseline_is_loadable(self):
        from pathlib import Path

        baseline = load_report(
            Path(__file__).parent.parent / "benchmarks" / "bench_baseline.json"
        )
        assert baseline["cases"], "CI baseline must pin at least one case"
        keys = {(c["benchmark"], c["scheduler"]) for c in baseline["cases"]}
        # The baseline must cover the quick matrix, else the CI gate is void.
        for benchmark in bench_mod.QUICK_BENCHMARKS:
            for scheduler in bench_mod.QUICK_SCHEDULERS:
                assert (benchmark, scheduler) in keys
