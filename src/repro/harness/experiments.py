"""Per-figure / per-table experiment definitions.

Each function regenerates the data behind one table or figure of the paper's
evaluation section and returns plain Python data structures (dicts / lists)
so the benches can print them and docs/EXPERIMENTS.md can record them.  All
of them accept a ``scale`` (workload size multiplier) and, where meaningful,
a restricted benchmark list so the pytest-benchmark harnesses stay fast.

Every simulation is submitted through the parallel sweep engine
(:mod:`repro.harness.parallel`): the ``workers`` argument fans independent
(benchmark, scheduler, config) jobs out over a process pool, and the
``cache`` argument controls the content-addressed result cache
(:mod:`repro.harness.cache`) so re-generating a figure whose runs overlap an
earlier experiment is near-free.  Both default to the environment
(``REPRO_WORKERS``, ``REPRO_RESULT_CACHE``); results are bit-identical for
any worker count.

Index (see docs/ARCHITECTURE.md for the full mapping):

========  =====================================================
Fig. 1a   ``fig1_interference_matrix``
Fig. 1b   ``fig1_bestswl_vs_ccws``
Fig. 4a/b ``fig4_interference_characterisation``
Table I   ``table1_configuration``
Table II  ``table2_benchmarks``
Fig. 8a/b ``fig8_main_comparison``
Fig. 9    ``fig9_timeseries``
Fig. 10   ``fig10_working_set``
Fig. 11a  ``fig11_sensitivity_epoch``
Fig. 11b  ``fig11_sensitivity_cutoff``
Fig. 12a  ``fig12_cache_configs``
Fig. 12b  ``fig12_dram_bandwidth``
Sec. V-F  ``overhead_analysis``
========  =====================================================
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.analysis.area import AreaModel
from repro.analysis.metrics import (
    class_geomeans,
    interference_summary,
    normalized_ipc_table,
    shared_memory_utilization_by_class,
    speedup_summary,
    tenant_slowdowns,
)
from repro.analysis.power import PowerModel
from repro.core.config import CIAOParameters
from repro.gpu.config import GPUConfig
from repro.api import MultiTenantRequest, SimulationRequest
from repro.harness.parallel import SweepOutcome, run_jobs
from repro.harness.reporting import normalize_to
from repro.harness.runner import RunConfig, run_many
from repro.workloads.registry import (
    MEMORY_INTENSIVE_BENCHMARKS,
    TABLE_II_ROWS,
    all_benchmarks,
    benchmark_names,
)
from repro.workloads.spec import WorkloadClass

#: The seven schedulers of Figure 8a, in plotting order.
FIGURE8_SCHEDULERS = ("gto", "ccws", "best-swl", "statpcal", "ciao-t", "ciao-p", "ciao-c")


def _sweep(
    jobs: Sequence[SimulationRequest], workers, cache, backend=None
) -> SweepOutcome:
    """Run ``jobs`` through the engine (shared by every experiment below)."""
    return run_jobs(jobs, workers=workers, cache=cache, backend=backend)


def _engine_stats(stats) -> dict:
    """Serialisable engine statistics attached to experiment outputs."""
    return {
        "jobs": stats.jobs,
        "cache_hits": stats.cache_hits,
        "executed": stats.executed,
        "workers": stats.workers,
        "wall_seconds": stats.wall_seconds,
        "backend": stats.backend,
    }


# ---------------------------------------------------------------------------
# Motivation figures
# ---------------------------------------------------------------------------
def fig1_interference_matrix(
    *,
    benchmark: str = "Backprop",
    scale: float = 0.4,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Figure 1a: pairwise warp interference heat-map data for Backprop."""
    config = RunConfig(scale=scale, seed=seed)
    outcome = _sweep([SimulationRequest(benchmark, "gto", config)], workers, cache, backend)
    result = outcome.results[0]
    summary = interference_summary(result, top_n=20)
    matrix = result.sm0.interference_matrix
    return {
        "benchmark": benchmark,
        "matrix": {victim: dict(row) for victim, row in matrix.items()},
        "summary": summary,
        "engine": _engine_stats(outcome.stats),
    }


def fig1_bestswl_vs_ccws(
    *,
    benchmark: str = "Backprop",
    scale: float = 0.4,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Figure 1b: IPC / hit rate / active warps of Best-SWL vs CCWS."""
    config = RunConfig(scale=scale, seed=seed)
    outcome = _sweep(
        [SimulationRequest(benchmark, sched, config) for sched in ("best-swl", "ccws")],
        workers,
        cache,
        backend,
    )
    rows = {}
    for job, result in outcome:
        stats = result.sm0
        rows[job.scheduler] = {
            "ipc": result.ipc,
            "l1d_hit_rate": stats.l1d_hit_rate,
            "mean_active_warps": stats.active_warp_series.mean(),
        }
    baseline = max(rows["best-swl"]["ipc"], rows["ccws"]["ipc"], 1e-9)
    for row in rows.values():
        row["ipc_normalized"] = row["ipc"] / baseline
    return {"benchmark": benchmark, "rows": rows, "engine": _engine_stats(outcome.stats)}


def fig4_interference_characterisation(
    *,
    focus_benchmark: str = "KMN",
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 0.35,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Figure 4a/b: interference frequency distribution per warp and workload."""
    config = RunConfig(scale=scale, seed=seed)
    extreme_names = list(benchmarks or MEMORY_INTENSIVE_BENCHMARKS[:4])
    jobs = [SimulationRequest(focus_benchmark, "gto", config, tag="focus")]
    jobs += [SimulationRequest(name, "gto", config, tag="extremes") for name in extreme_names]
    outcome = _sweep(jobs, workers, cache, backend)
    focus_summary = interference_summary(outcome.results[0], top_n=48)
    extremes = {
        job.benchmark_name: result.sm0.interference_extremes()
        for job, result in outcome
        if job.tag == "extremes"
    }
    return {
        "focus_benchmark": focus_benchmark,
        "focus_top_pairs": focus_summary["top_pairs"],
        "per_workload_min_max": extremes,
        "engine": _engine_stats(outcome.stats),
    }


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------
def table1_configuration() -> dict:
    """Table I: the simulated machine configuration."""
    config = GPUConfig.gtx480(num_sms=15)
    return {
        "num_sms": config.chip_sms,
        "max_threads_per_sm": config.max_threads_per_sm,
        "l1d_kb": config.l1d.size_bytes // 1024,
        "l1d_assoc": config.l1d.associativity,
        "l1d_line": config.l1d.line_size,
        "shared_memory_kb": config.shared_memory_bytes // 1024,
        "l2_kb": config.l2.size_bytes // 1024,
        "l2_assoc": config.l2.associativity,
        "vta_entries_per_warp": config.vta.entries_per_warp,
        "vta_sets": config.vta.num_warps,
        "mshr_entries": config.mshr_entries,
    }


def table2_benchmarks() -> list[dict]:
    """Table II: benchmark characteristics."""
    return TABLE_II_ROWS()


# ---------------------------------------------------------------------------
# Main comparison (Figure 8)
# ---------------------------------------------------------------------------
def fig8_main_comparison(
    *,
    benchmarks: Optional[Sequence[str]] = None,
    schedulers: Sequence[str] = FIGURE8_SCHEDULERS,
    scale: float = 0.3,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Figure 8a/b: normalised IPC per benchmark + class geomeans + shared-memory use."""
    names = list(benchmarks or benchmark_names())
    results, stats = run_many(
        names,
        list(schedulers),
        scale=scale,
        seed=seed,
        workers=workers,
        cache=cache,
        backend=backend,
        return_stats=True,
    )
    normalized = normalized_ipc_table(results)
    return {
        "benchmarks": names,
        "schedulers": list(schedulers),
        "normalized_ipc": normalized,
        "geomean_speedup": speedup_summary(results),
        "class_geomeans": class_geomeans(results),
        "shared_memory_utilization": shared_memory_utilization_by_class(results),
        "raw_ipc": {
            bench: {sched: res.ipc for sched, res in row.items()}
            for bench, row in results.items()
        },
        "engine": _engine_stats(stats),
    }


# ---------------------------------------------------------------------------
# Time-series studies (Figures 9 and 10)
# ---------------------------------------------------------------------------
def _timeseries_rows(result) -> dict:
    stats = result.sm0
    return {
        "ipc": stats.ipc_series.as_pairs(),
        "active_warps": stats.active_warp_series.as_pairs(),
        "interference": stats.interference_series.as_pairs(),
    }


def fig9_timeseries(
    *,
    benchmarks: Sequence[str] = ("ATAX", "Backprop"),
    schedulers: Sequence[str] = ("best-swl", "ccws", "ciao-t"),
    scale: float = 0.4,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Figure 9: IPC / active warps / interference over time (ATAX, Backprop)."""
    config = RunConfig(scale=scale, seed=seed)
    jobs = [
        SimulationRequest(bench, sched, config)
        for bench in benchmarks
        for sched in schedulers
    ]
    outcome = _sweep(jobs, workers, cache, backend)
    out: dict = {}
    for job, result in outcome:
        out.setdefault(job.benchmark_name, {})[job.scheduler] = _timeseries_rows(result)
    return out


def fig10_working_set(
    *,
    benchmarks: Sequence[str] = ("SYRK", "KMN"),
    schedulers: Sequence[str] = ("ciao-t", "ciao-p", "ciao-c"),
    scale: float = 0.4,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Figure 10: the three CIAO schemes over time on an SWS and an LWS workload."""
    return fig9_timeseries(
        benchmarks=benchmarks,
        schedulers=schedulers,
        scale=scale,
        seed=seed,
        workers=workers,
        cache=cache,
        backend=backend,
    )


# ---------------------------------------------------------------------------
# Sensitivity studies (Figure 11)
# ---------------------------------------------------------------------------
def fig11_sensitivity_epoch(
    *,
    benchmarks: Optional[Sequence[str]] = None,
    epochs: Iterable[int] = (1000, 5000, 10000, 50000),
    scale: float = 0.3,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Figure 11a: IPC of CIAO-C for different high-cutoff epoch lengths."""
    names = list(benchmarks or MEMORY_INTENSIVE_BENCHMARKS)
    epochs = list(epochs)
    jobs = [
        SimulationRequest(
            bench,
            "ciao-c",
            RunConfig(
                scale=scale,
                seed=seed,
                ciao_params=CIAOParameters.paper_defaults().with_high_epoch(epoch),
            ),
            tag=str(epoch),
        )
        for bench in names
        for epoch in epochs
    ]
    outcome = _sweep(jobs, workers, cache, backend)
    table: dict[str, dict[int, float]] = {bench: {} for bench in names}
    for job, result in outcome:
        table[job.benchmark_name][int(job.tag)] = result.ipc
    normalized = {bench: normalize_to(row, 5000) for bench, row in table.items()}
    return {"raw_ipc": table, "normalized_to_5000": normalized}


def fig11_sensitivity_cutoff(
    *,
    benchmarks: Optional[Sequence[str]] = None,
    cutoffs: Iterable[float] = (0.04, 0.02, 0.01, 0.005),
    scale: float = 0.3,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Figure 11b: IPC of CIAO-C for different high-cutoff thresholds."""
    names = list(benchmarks or MEMORY_INTENSIVE_BENCHMARKS)
    cutoffs = list(cutoffs)
    jobs = [
        SimulationRequest(
            bench,
            "ciao-c",
            RunConfig(
                scale=scale,
                seed=seed,
                ciao_params=CIAOParameters.paper_defaults().with_high_cutoff(cutoff),
            ),
            tag=repr(cutoff),
        )
        for bench in names
        for cutoff in cutoffs
    ]
    outcome = _sweep(jobs, workers, cache, backend)
    table: dict[str, dict[float, float]] = {bench: {} for bench in names}
    for job, result in outcome:
        table[job.benchmark_name][float(job.tag)] = result.ipc
    normalized = {bench: normalize_to(row, 0.01) for bench, row in table.items()}
    return {"raw_ipc": table, "normalized_to_1pct": normalized}


# ---------------------------------------------------------------------------
# Cache / DRAM configuration studies (Figure 12)
# ---------------------------------------------------------------------------
def fig12_cache_configs(
    *,
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 0.3,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Figure 12a: GTO vs GTO-cap vs GTO-8way vs CIAO-C."""
    names = list(
        benchmarks
        or [
            spec.name
            for spec in all_benchmarks()
            if spec.workload_class in (WorkloadClass.LWS, WorkloadClass.SWS)
        ]
    )
    variants = {
        "gto": ("gto", GPUConfig.gtx480()),
        "gto-cap": ("gto", GPUConfig.gtx480_large_l1d()),
        "gto-8way": ("gto", GPUConfig.gtx480_8way_l1d()),
        "ciao-c": ("ciao-c", GPUConfig.gtx480()),
    }
    jobs = [
        SimulationRequest(
            bench,
            sched,
            RunConfig(scale=scale, seed=seed, gpu_config=config),
            tag=label,
        )
        for bench in names
        for label, (sched, config) in variants.items()
    ]
    outcome = _sweep(jobs, workers, cache, backend)
    raw: dict[str, dict[str, float]] = {bench: {} for bench in names}
    for job, result in outcome:
        raw[job.benchmark_name][job.tag] = result.ipc
    normalized = {bench: normalize_to(row, "gto") for bench, row in raw.items()}
    return {"raw_ipc": raw, "normalized_ipc": normalized, "variants": list(variants)}


def fig12_dram_bandwidth(
    *,
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 0.3,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Figure 12b: statPCAL-2X vs CIAO-C-2X (doubled DRAM bandwidth)."""
    names = list(
        benchmarks
        or [
            spec.name
            for spec in all_benchmarks()
            if spec.workload_class in (WorkloadClass.LWS, WorkloadClass.SWS)
        ]
    )
    base = RunConfig(scale=scale, seed=seed)
    doubled = RunConfig(scale=scale, seed=seed, dram_bandwidth_scale=2.0)
    jobs = []
    for bench in names:
        jobs.append(SimulationRequest(bench, "gto", base, tag="gto"))
        jobs.append(SimulationRequest(bench, "statpcal", doubled, tag="statpcal-2x"))
        jobs.append(SimulationRequest(bench, "ciao-c", doubled, tag="ciao-c-2x"))
    outcome = _sweep(jobs, workers, cache, backend)
    raw: dict[str, dict[str, float]] = {bench: {} for bench in names}
    for job, result in outcome:
        raw[job.benchmark_name][job.tag] = result.ipc
    normalized = {bench: normalize_to(row, "gto") for bench, row in raw.items()}
    return {"raw_ipc": raw, "normalized_ipc": normalized}


# ---------------------------------------------------------------------------
# Co-location interference (multi-tenant lock-step)
# ---------------------------------------------------------------------------
def colocation_report(
    request: MultiTenantRequest,
    *,
    isolated: bool = True,
    workers: Optional[int] = None,
    cache="auto",
) -> tuple[SweepOutcome, dict]:
    """Run a co-located request and its per-tenant interference report.

    Submits ``request`` plus, when ``isolated``, one isolated baseline per
    tenant (:meth:`~repro.api.MultiTenantRequest.isolated_request`: the
    same machine with every other SM idle) through the sweep engine, and
    returns ``(outcome, slowdowns)``.  ``outcome.results[0]`` is the
    co-located result, followed by the tenants' baselines in tenant order;
    ``slowdowns`` is :func:`repro.analysis.metrics.tenant_slowdowns` over
    them, or ``{}`` without baselines.  ``repro run --tenants/--scenario``,
    :func:`colocation_interference` and the worst-case scenario search all
    report co-location through this one function.
    """
    jobs = [request]
    if isolated:
        jobs += [request.isolated_request(t.name) for t in request.tenants]
    outcome = run_jobs(jobs, workers=workers, cache=cache)
    if not isolated:
        return outcome, {}
    baselines = {
        tenant.name: result
        for tenant, result in zip(request.tenants, outcome.results[1:])
    }
    return outcome, tenant_slowdowns(outcome.results[0], baselines)


def colocation_interference(
    *,
    scenario: str = "thrash-vs-compute",
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Co-located run + per-tenant isolated baselines + slowdown report.

    Submits the scenario's co-located request and one isolated request per
    tenant (same machine, other SMs idle) through the sweep engine, then
    derives per-tenant slowdown, IPC and the inter-SM DRAM conflict
    attribution (:func:`repro.analysis.metrics.tenant_slowdowns`).
    Scenarios come from :mod:`repro.scenarios.library`.
    """
    from repro.scenarios.library import COLOCATION_SCENARIOS, colocation_scenario

    request = colocation_scenario(scenario, scale=scale, seed=seed, backend=backend)
    outcome, slowdowns = colocation_report(request, workers=workers, cache=cache)
    colocated = outcome.results[0]
    return {
        "scenario": scenario,
        "description": COLOCATION_SCENARIOS[scenario].description,
        "tenants": {
            t.name: {
                "benchmark": t.benchmark_name,
                "scheduler": t.scheduler,
                "sm_ids": list(t.sm_ids),
            }
            for t in request.tenants
        },
        "per_tenant": slowdowns,
        "inter_sm_dram_conflicts": colocated.inter_sm_dram_conflicts,
        "scale": request.run_config.scale,
        "seed": request.run_config.seed,
        "engine": _engine_stats(outcome.stats),
    }


# ---------------------------------------------------------------------------
# Overhead analysis (Section V-F)
# ---------------------------------------------------------------------------
def overhead_analysis(
    *,
    benchmark: str = "SYRK",
    scale: float = 0.3,
    seed: int = 1,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
) -> dict:
    """Section V-F: area and power overhead of the CIAO hardware."""
    area = AreaModel().report()
    config = RunConfig(scale=scale, seed=seed)
    outcome = _sweep([SimulationRequest(benchmark, "ciao-c", config)], workers, cache, backend)
    stats = outcome.results[0].sm0
    power = PowerModel().from_stats(stats, stats.cycles)
    return {
        "area": area,
        "power": power,
        "activity_benchmark": benchmark,
        "claims": {
            "area_below_2_percent": area["fraction_of_die"] < 0.02,
            "power_below_1_percent_of_tdp": power["fraction_of_tdp"] < 0.01,
        },
    }
