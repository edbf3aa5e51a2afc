"""``repro`` — the command-line front end of the reproduction.

Installed as a console script by ``setup.py`` (``pip install -e .``) and also
runnable without installation::

    PYTHONPATH=src python -m repro <subcommand> ...

Subcommands
-----------

``repro run BENCH [SCHED ...]``
    Simulate one benchmark under one or more schedulers and print the
    headline metrics.
``repro run --tenants SPEC`` / ``repro run --scenario NAME``
    Co-located multi-tenant simulation on the lock-step engine: each tenant
    runs its own kernel on its own SM partition while all SMs contend for
    the shared L2/DRAM.  ``SPEC`` is a comma-separated list of
    ``[NAME=]BENCH[/SCHED]:SMS[@CYCLE]`` entries (``SMS`` an SM id or
    ``lo-hi`` range; ``@CYCLE`` staggers the tenant's kernel launch to that
    global cycle), e.g. ``--tenants SM:0-1,2DCONV/ciao-c:2@500``;
    ``--scenario`` picks a named scenario from the co-location library
    (built-ins plus promoted search discoveries).  ``--isolated``
    additionally runs every tenant alone on the same machine and reports
    per-tenant slowdown (scenarios always do).
``repro scenarios generate|search|promote``
    The seeded scenario subsystem: ``generate`` samples reproducible
    co-location scenarios (same seed, same specs, same cache keys),
    ``search`` hill-climbs the scenario space for worst-case interference
    (max per-tenant slowdown), and ``promote`` pins the worst discoveries
    into the named scenario library (``promoted.json``).  See
    docs/EXPERIMENTS.md.
``repro sweep -b BENCH ... -s SCHED ...``
    Run a benchmark x scheduler grid through the parallel sweep engine and
    print the normalised-IPC table, geomean speedups and engine statistics.
    With ``--workers-at HOST:PORT,...`` (or ``--worker-roster
    shards.json``) the same sweep shards across remote ``repro worker``
    processes — partitioned by cache key, streamed into the checkpoint
    manifest, bit-identical to the local run.  See docs/DISTRIBUTED.md.
``repro reproduce FIGURE ...``
    Regenerate the data behind a figure / table of the paper (``fig8``,
    ``fig11a``, ``table2``, ... or ``all``) as JSON.
``repro serve --host --port --workers``
    Boot the long-lived simulation service (see docs/SERVING.md): accepts
    request wire forms on ``POST /simulate``, serves cache hits instantly,
    coalesces identical in-flight requests into one simulation, runs
    each other miss at once on a worker pool, and exposes
    ``/healthz`` / ``/stats`` / ``/jobs``.  SIGTERM or ``POST /shutdown``
    drains gracefully.
``repro worker --host --port``
    Boot a long-lived sweep worker for ``repro sweep --workers-at``:
    accepts ``RequestBatch`` wire forms on ``POST /batch`` and executes
    them through ``run_jobs`` (retry/timeout/chaos stack included).
    SIGTERM or ``POST /shutdown`` drains gracefully.
``repro submit BENCH [SCHED]`` / ``repro submit --file payload.json``
    Submit one request to a running ``repro serve`` instance and print the
    result (the testing client for the service).
``repro cache [show|stats|clear|fsck]``
    Show the content-addressed result cache, print the bench-ledger
    statistics (warm vs cold sweep trajectory and ``repro serve``
    traffic), clear the cache, or verify artifact integrity.
``repro list``
    List the available benchmarks, schedulers and backends
    (``--backends`` for backends only).

Parallelism defaults to the CPU count (``--workers`` / ``REPRO_WORKERS``
override); the result cache defaults to on (``--no-cache`` /
``REPRO_RESULT_CACHE=0`` disable); the execution engine defaults to the
serialized ``reference`` backend (``--backend`` / ``REPRO_BACKEND``
select e.g. the lock-step multi-SM engine).  See docs/EXPERIMENTS.md and
docs/API.md for the full knob reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.metrics import normalized_ipc_table, speedup_summary
from repro.api import RESULT_SCHEMA, MultiTenantRequest, SimulationRequest, TenantSpec
from repro.backends import (
    BackendUnavailableError,
    backend_availability,
    backend_names,
    resolve_backend_name,
)
from repro.harness.cache import ResultCache, cache_enabled_by_env, default_cache_dir
from repro.harness.integrity import default_quarantine_dir, fsck, quarantined_artifacts
from repro.harness.ledger import (
    is_sweep,
    ledger_path,
    read_ledger,
    read_ledger_report,
    summarize_ledger,
)
from repro.harness.parallel import (
    RetryPolicy,
    SweepError,
    derive_seed,
    run_jobs,
)
from repro.harness.reporting import format_sweep_stats, format_table
from repro.harness.runner import RunConfig
from repro.sched.registry import canonical_scheduler_name, scheduler_names
from repro.version import __version__
from repro.workloads.registry import (
    all_benchmarks,
    get_benchmark,
    resolve_benchmark_names,
)

#: ``repro reproduce`` targets -> experiment function names.
REPRODUCE_TARGETS = {
    "fig1a": "fig1_interference_matrix",
    "fig1b": "fig1_bestswl_vs_ccws",
    "fig4": "fig4_interference_characterisation",
    "table1": "table1_configuration",
    "table2": "table2_benchmarks",
    "fig8": "fig8_main_comparison",
    "fig9": "fig9_timeseries",
    "fig10": "fig10_working_set",
    "fig11a": "fig11_sensitivity_epoch",
    "fig11b": "fig11_sensitivity_cutoff",
    "fig12a": "fig12_cache_configs",
    "fig12b": "fig12_dram_bandwidth",
    "overhead": "overhead_analysis",
}


def _emit_json(payload, out: Optional[str] = None) -> None:
    """Print ``payload`` as indented JSON, or write it to ``out``."""
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


def _cache_from_args(args) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False) or not cache_enabled_by_env():
        return None
    return ResultCache()


def _add_sweep_options(
    parser: argparse.ArgumentParser, *, scale_default=0.3, seed_default=1
) -> None:
    parser.add_argument("--scale", type=float, default=scale_default,
                        help="workload size multiplier (default 0.3; a "
                             "--scenario run defaults to the scenario's "
                             "pinned scale)" if scale_default is None else
                             "workload size multiplier (default 0.3)")
    parser.add_argument("--seed", type=int, default=seed_default,
                        help="base workload RNG seed (default 1; a --scenario "
                             "run defaults to the scenario's pinned seed)"
                        if seed_default is None else
                        "base workload RNG seed (default 1)")


def _option_parents() -> dict[str, argparse.ArgumentParser]:
    """argparse parents of the flags that mean the same in every command."""
    parents = {
        name: argparse.ArgumentParser(add_help=False)
        for name in ("workers", "no_cache", "backend")
    }
    parents["workers"].add_argument(
        "--workers", type=int, default=None,
        help="process-pool size (default: REPRO_WORKERS or CPU count)")
    parents["no_cache"].add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache for this invocation (a daemon "
             "then simulates every distinct request)")
    parents["backend"].add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution engine (a daemon's engine for requests that do not "
             f"pin one), one of: {', '.join(backend_names())} (or any "
             "registered alias; default: REPRO_BACKEND or 'reference')")
    return parents


def _run_config(args) -> RunConfig:
    """``repro run``'s RunConfig: ``--scale``/``--seed``, else 0.3 and 1."""
    return RunConfig(
        scale=args.scale if args.scale is not None else 0.3,
        seed=args.seed if args.seed is not None else 1,
    )


# ---------------------------------------------------------------------------
# repro run
# ---------------------------------------------------------------------------
def parse_tenant_specs(text: str, *, default_scheduler: str = "gto") -> tuple[TenantSpec, ...]:
    """Parse a ``--tenants`` value into :class:`TenantSpec` tuples.

    Grammar: comma-separated ``[NAME=]BENCH[/SCHED]:SMS[@CYCLE]`` entries,
    where ``SMS`` is one SM id (``3``) or an inclusive range (``0-7``) and
    ``@CYCLE`` optionally staggers the tenant's kernel launch to that global
    cycle (default 0, simultaneous launch).  Tenant names default to the
    benchmark name (``-2``, ``-3`` suffixes keep duplicates unique), and
    every tenant receives its own address space.
    """
    tenants: list[TenantSpec] = []
    seen_names: dict[str, int] = {}
    for index, raw in enumerate(text.split(",")):
        entry = raw.strip()
        head, sep, sms_text = entry.rpartition(":")
        if not sep or not head or not sms_text:
            raise ValueError(
                f"bad tenant spec {entry!r} (expected [NAME=]BENCH[/SCHED]:SMS[@CYCLE], "
                "e.g. SM:0-1 or compute=2DCONV/ciao-c:2@500)"
            )
        name = None
        if "=" in head:
            name, _, head = head.partition("=")
            name = name.strip()
        benchmark, _, scheduler = head.partition("/")
        benchmark = get_benchmark(benchmark.strip()).name
        scheduler = canonical_scheduler_name(scheduler.strip() or default_scheduler)
        sms_text, at, cycle_text = sms_text.partition("@")
        launch_cycle = 0
        if at:
            try:
                launch_cycle = int(cycle_text)
                if launch_cycle < 0:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"bad launch cycle {cycle_text!r} in tenant {entry!r} "
                    "(need a non-negative int after '@')"
                ) from None
        lo, dash, hi = sms_text.partition("-")
        try:
            first = int(lo)
            last = int(hi) if dash else first  # 'ATAX:0-' fails: int('')
        except ValueError:
            raise ValueError(f"bad SM range {sms_text!r} in tenant {entry!r}") from None
        if last < first:
            raise ValueError(f"empty SM range {sms_text!r} in tenant {entry!r}")
        if not name:
            name = benchmark
        count = seen_names.get(name, 0) + 1
        seen_names[name] = count
        if count > 1:
            name = f"{name}-{count}"
        tenants.append(
            TenantSpec(
                name=name,
                benchmark=benchmark,
                scheduler=scheduler,
                sm_ids=tuple(range(first, last + 1)),
                address_space=index + 1,
                launch_cycle=launch_cycle,
            )
        )
    return tuple(tenants)


def _cmd_run_tenants(args) -> int:
    """The multi-tenant arm of ``repro run`` (--tenants / --scenario)."""
    from repro.scenarios.library import colocation_scenario

    if args.benchmark or args.schedulers:
        raise ValueError("--tenants/--scenario replaces the positional "
                         "BENCH [SCHED ...] arguments")
    if args.scenario:
        request = colocation_scenario(
            args.scenario, scale=args.scale, seed=args.seed, backend=args.backend
        )
        with_isolated = True  # scenarios always report slowdown vs isolated
    else:
        request = MultiTenantRequest(
            tenants=parse_tenant_specs(args.tenants),
            run_config=_run_config(args),
            backend=args.backend,
        )
        with_isolated = args.isolated
    request.canonicalize()  # fail fast on bad partitions / unknown names

    from repro.harness.experiments import colocation_report

    outcome, slowdowns = colocation_report(
        request, isolated=with_isolated, workers=args.workers,
        cache=_cache_from_args(args),
    )
    colocated = outcome.results[0]
    staggered = any(t.launch_cycle for t in request.tenants)
    rows = []
    for tenant in request.tenants:
        stats = colocated.per_tenant[tenant.name]
        row = {
            "tenant": tenant.name,
            "benchmark": tenant.benchmark_name,
            "scheduler": stats.scheduler,
            "sms": "+".join(str(i) for i in stats.sm_ids),
        }
        if staggered:
            row["launch"] = stats.launch_cycle
        row |= {
            "cycles": stats.finish_cycle,
            "ipc": stats.ipc,
            "dram_conflicts": stats.inter_sm_dram_conflicts,
        }
        if with_isolated:
            row["isolated_cycles"] = int(slowdowns[tenant.name]["isolated_cycles"])
            row["slowdown"] = slowdowns[tenant.name]["slowdown"]
        rows.append(row)

    if args.json:
        _emit_json({
            "scenario": args.scenario,
            "tenants": rows,
            "per_tenant": slowdowns or None,
            "inter_sm_dram_conflicts": colocated.inter_sm_dram_conflicts,
            "backend": colocated.backend,
            "scale": request.run_config.scale,
            "seed": request.run_config.seed,
            "result_schema": RESULT_SCHEMA,
        })
    else:
        title = f"scenario {args.scenario}" if args.scenario else "co-located tenants"
        print(f"{title} @ scale {request.run_config.scale}, "
              f"seed {request.run_config.seed} ({colocated.backend} backend)")
        print(format_table(rows))
        print(f"\ninter-SM DRAM conflicts: {colocated.inter_sm_dram_conflicts} "
              "(attributed per tenant above)")
        print(format_sweep_stats(outcome.stats))
    return 0


def _canonical_schedulers(names) -> list[str]:
    """Canonical scheduler names, each once, in first-given order."""
    return list(dict.fromkeys(canonical_scheduler_name(name) for name in names))


def cmd_run(args) -> int:
    if args.tenants and args.scenario:
        raise ValueError("use either --tenants or --scenario, not both")
    if args.tenants or args.scenario:
        return _cmd_run_tenants(args)
    if not args.benchmark:
        raise ValueError("benchmark argument required (or use --tenants/--scenario)")
    if args.isolated:
        raise ValueError("--isolated only applies to --tenants/--scenario runs")
    get_benchmark(args.benchmark)  # validate up front for a clean error
    schedulers = _canonical_schedulers(args.schedulers or ["gto"])
    config = _run_config(args)
    jobs = [
        SimulationRequest(args.benchmark, sched, config, backend=args.backend)
        for sched in schedulers
    ]
    cache = _cache_from_args(args)
    outcome = run_jobs(jobs, workers=args.workers, cache=cache)

    rows = []
    for job, result in outcome:
        stats = result.sm0
        rows.append({
            "scheduler": job.scheduler,
            "ipc": result.ipc,
            "cycles": stats.cycles,
            "l1d_hit_rate": stats.l1d_hit_rate,
            "shared_cache_hit_rate": stats.shared_cache_hit_rate,
            "vta_hits": stats.vta_hits,
            "mean_active_warps": stats.active_warp_series.mean(),
        })
    if args.json:
        _emit_json({
            "benchmark": args.benchmark,
            "rows": rows,
            "backend": outcome.stats.backend,
            "result_schema": RESULT_SCHEMA,
        })
    else:
        print(f"{args.benchmark} @ scale {config.scale}, seed {config.seed}")
        print(format_table(rows))
        print(format_sweep_stats(outcome.stats))
    return 0


# ---------------------------------------------------------------------------
# repro sweep
# ---------------------------------------------------------------------------
def _sweep_retry_policy(args) -> Optional[RetryPolicy]:
    """Build the sweep's RetryPolicy from CLI flags (None = defaults)."""
    if (
        args.timeout is None
        and args.straggler is None
        and args.max_attempts == 3
    ):
        return None  # run_jobs substitutes a default policy when retrying
    return RetryPolicy(
        max_attempts=args.max_attempts,
        timeout_seconds=args.timeout,
        straggler_seconds=args.straggler,
        seed=args.seed,
    )


def cmd_sweep(args) -> int:
    benchmarks = resolve_benchmark_names(args.benchmarks)
    schedulers = _canonical_schedulers(args.schedulers)

    backend = args.backend
    if args.chaos:
        # Wrap the selected engine in the seeded fault injector: jobs run
        # on the `chaos` backend, which delegates to the real one.  The
        # plan is mirrored into REPRO_CHAOS so pool workers see it too.
        from dataclasses import replace as _dc_replace

        from repro.harness.faults import FaultPlan, configure_chaos

        plan = FaultPlan.from_spec(args.chaos)
        if backend is not None:
            plan = _dc_replace(plan, delegate=resolve_backend_name(backend))
        configure_chaos(plan)
        backend = "chaos"

    manifest = args.resume or args.manifest
    if args.resume and args.manifest and args.resume != args.manifest:
        raise ValueError("--resume and --manifest name different files")

    retry = _sweep_retry_policy(args)

    if args.audit_rate and not (args.workers_at or args.worker_roster):
        raise ValueError("--audit-rate only applies to distributed sweeps "
                         "(--workers-at / --worker-roster); local jobs execute "
                         "in this process and need no re-verification")

    jobs = []
    for bench in benchmarks:
        for sched in schedulers:
            seed = (
                derive_seed(args.seed, bench, sched)
                if args.seed_per_job
                else args.seed
            )
            jobs.append(
                SimulationRequest(
                    bench, sched, RunConfig(scale=args.scale, seed=seed),
                    backend=backend,
                )
            )
    cache = _cache_from_args(args)
    if args.workers_at or args.worker_roster:
        # Cross-machine sharded sweep: partition by cache key, dispatch to
        # the roster's `repro worker` processes, stream outcomes into the
        # same manifest (--resume works unchanged).  docs/DISTRIBUTED.md.
        from repro.harness.distributed import (
            load_worker_roster,
            parse_workers_at,
            run_distributed,
        )

        if args.workers_at and args.worker_roster:
            raise ValueError("--workers-at and --worker-roster are mutually exclusive")
        roster = (
            parse_workers_at(args.workers_at)
            if args.workers_at
            else load_worker_roster(args.worker_roster)
        )
        if args.chunk_size < 1:
            # run_distributed chunks only pending jobs, so a fully cached
            # sweep would accept 0: reject it before any lookup.
            raise ValueError("--chunk-size must be >= 1")
        outcome = run_distributed(
            jobs,
            roster,
            cache=cache,
            on_error=args.on_error,
            retry=retry,
            manifest=manifest,
            chunk_size=args.chunk_size,
            audit_rate=args.audit_rate,
        )
    else:
        outcome = run_jobs(
            jobs,
            workers=args.workers,
            cache=cache,
            on_error=args.on_error,
            retry=retry,
            manifest=manifest,
        )

    failures = outcome.failures()
    grid = outcome.nested()
    raw = {
        bench: {sched: result.ipc for sched, result in row.items()}
        for bench, row in grid.items()
    }
    # Failed jobs leave the grid, and a benchmark whose baseline failed has
    # nothing to normalise against, so no failed cell is counted as 0.0.
    baseline = schedulers[0]
    grid = {bench: row for bench, row in grid.items() if baseline in row}
    normalized = normalized_ipc_table(grid, baseline)
    stats = outcome.stats
    if outcome.manifest_skipped:
        # Unparseable manifest lines (torn tail from a crash, bit rot) are
        # skipped, never trusted; tell the user how to adjudicate them.
        print(f"warning: skipped {outcome.manifest_skipped} corrupt manifest "
              f"line(s) in {manifest}; run `repro cache fsck --manifest "
              f"{manifest} --repair` to quarantine the damage", file=sys.stderr)
    if args.json:
        _emit_json({
            "benchmarks": benchmarks,
            "schedulers": schedulers,
            "raw_ipc": raw,
            "normalized_ipc": normalized,
            "baseline": baseline,
            "backend": stats.backend,
            "executed": stats.executed,
            "cache_hits": stats.cache_hits,
            "failed": stats.failed,
            "retried": stats.retried,
            "timed_out": stats.timed_out,
            "audited": stats.audited,
            "audit_failures": stats.audit_failures,
            "corrupt": stats.corrupt,
            "manifest_skipped": outcome.manifest_skipped,
            "failures": [
                {
                    "benchmark": f.benchmark_name,
                    "scheduler": f.scheduler,
                    "error_type": f.error_type,
                    "error": f.error,
                    "attempts": f.attempts,
                    "timed_out": f.timed_out,
                }
                for f in failures
            ],
        })
        return 1 if failures else 0

    print(f"IPC normalised to {baseline} (scale {args.scale}, seed {args.seed}"
          f"{', per-job seeds' if args.seed_per_job else ''}):")
    print(format_table(
        [{"benchmark": bench, **row} for bench, row in normalized.items()],
        columns=["benchmark", *schedulers],
    ))
    geomeans = speedup_summary(grid, baseline)
    print("\nGeomean speedup over", baseline + ":")
    for sched in schedulers:
        print(f"  {sched:10s} {geomeans.get(sched, 0.0):.3f}")
    print()
    print(format_sweep_stats(stats, cache.stats if cache else None))
    if failures:
        print(f"\n{len(failures)} job(s) failed "
              f"(on_error={args.on_error!r}):")
        for failure in failures:
            extra = ", timed out" if failure.timed_out else ""
            print(f"  {failure.benchmark_name}/{failure.scheduler}: "
                  f"{failure.error_type}: {failure.error} "
                  f"(attempts {failure.attempts}{extra})")
        return 1
    return 0


# ---------------------------------------------------------------------------
# repro reproduce
# ---------------------------------------------------------------------------
def cmd_reproduce(args) -> int:
    from repro.harness import experiments

    targets = list(REPRODUCE_TARGETS) if "all" in args.figures else args.figures
    unknown = [f for f in targets if f not in REPRODUCE_TARGETS]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"choose from {', '.join(REPRODUCE_TARGETS)} or 'all'", file=sys.stderr)
        return 2

    cache = _cache_from_args(args)
    output: dict[str, object] = {}
    for figure in targets:
        fn = getattr(experiments, REPRODUCE_TARGETS[figure])
        kwargs: dict[str, object] = {}
        # Tables are pure lookups; everything else simulates via the engine.
        if figure not in ("table1", "table2"):
            kwargs = {
                "scale": args.scale,
                "seed": args.seed,
                "workers": args.workers,
                "cache": cache,
                "backend": args.backend,
            }
        print(f"reproducing {figure} ({REPRODUCE_TARGETS[figure]}) ...", file=sys.stderr)
        output[figure] = fn(**kwargs)

    _emit_json(output if len(targets) > 1 else output[targets[0]], args.out)
    if cache is not None:
        print(
            f"cache: {cache.stats.hits} hits / {cache.stats.lookups} lookups "
            f"({cache.stats.hit_rate:.0%})",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# repro cache / repro list
# ---------------------------------------------------------------------------
def _cmd_cache_fsck(args, cache: ResultCache) -> int:
    """``repro cache fsck [--repair]``: scan cache + manifests + ledger.

    Exit 0 only when nothing is corrupt and no damaged lines remain on
    disk; a scan that merely *found* (and quarantined) damage exits 1 so
    scripts notice, and a following ``--repair`` run exits 0.
    """
    ledger = Path(args.fsck_ledger) if args.fsck_ledger else ledger_path()
    report = fsck(
        cache=cache,
        manifests=[Path(m) for m in (args.fsck_manifest or ())],
        ledger=ledger if ledger.exists() else None,
        repair=args.repair,
    )
    if args.json:
        _emit_json(report.to_dict())
        return 0 if report.clean else 1
    for artifact in report.artifacts:
        notes = []
        if artifact.detail:
            notes.append(artifact.detail)
        if artifact.damaged_lines:
            notes.append(f"{artifact.damaged_lines} damaged line(s)")
        if artifact.quarantined:
            notes.append("quarantined")
        if artifact.repaired:
            notes.append("repaired")
        suffix = f"  ({'; '.join(notes)})" if notes else ""
        print(f"{artifact.kind:8s} {artifact.verdict:8s} {artifact.path}{suffix}")
    print(f"\nchecked {len(report.artifacts)} artifact(s): "
          f"{report.corrupt} corrupt, {report.legacy} legacy, "
          f"{report.damaged_lines} damaged line(s)"
          f"{f' ({report.unrepaired_damage} unrepaired)' if report.damaged_lines else ''}")
    if cache.stats.quarantined or report.corrupt:
        print(f"quarantine      : {default_quarantine_dir()}")
    if not report.clean:
        if report.repair:
            print("damage remains after --repair; inspect the quarantine "
                  "directory", file=sys.stderr)
        else:
            print("damage found; re-run with --repair to rewrite legacy "
                  "envelopes and strip damaged lines (originals are "
                  "preserved in quarantine)", file=sys.stderr)
        return 1
    return 0


def cmd_cache(args) -> int:
    action = args.action
    cache = ResultCache()
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        if cache.stats.quarantined:
            print(f"quarantined {cache.stats.quarantined} corrupt entr"
                  f"{'y' if cache.stats.quarantined == 1 else 'ies'} "
                  "(see repro cache fsck)")
        return 0
    if action == "fsck":
        return _cmd_cache_fsck(args, cache)
    if action == "stats":
        path = ledger_path()
        # A missing .repro/ or ledger file is the normal state of a fresh
        # checkout, not an error: say so plainly instead of an ambiguous
        # "(empty)" (the serve /stats endpoint shares summarize_ledger and
        # reports zeros for the same reason).
        if not path.exists():
            print(f"no bench ledger yet at {path}")
            print("run a sweep (repro sweep) or a service session "
                  "(repro serve) to create it")
            return 0
        entries, skipped = read_ledger_report(path)
        if skipped:
            print(f"warning: skipped {skipped} corrupt ledger line(s); run "
                  "`repro cache fsck --repair` to quarantine the damage",
                  file=sys.stderr)
        if not entries:
            print(f"bench ledger    : {path} (exists but has no entries yet)")
            return 0
        summary = summarize_ledger(entries)
        print(f"bench ledger    : {path}")
        print(f"sweeps          : {summary['sweeps']} "
              f"({summary['cold_sweeps']} cold, {summary['warm_sweeps']} warm)")
        print(f"jobs            : {summary['jobs']} "
              f"({summary['cache_hits']} cached, {summary['hit_rate']:.0%})")
        print(f"wall time       : {summary['wall_seconds']:.2f}s total")
        print(f"mean cold sweep : {summary['mean_cold_wall_seconds']:.2f}s")
        print(f"mean warm sweep : {summary['mean_warm_wall_seconds']:.2f}s")
        if summary["sweeps_by_backend"]:
            per_backend = ", ".join(
                f"{name}: {count}" for name, count in sorted(summary["sweeps_by_backend"].items())
            )
            print(f"by backend      : {per_backend}")
        if summary["serve_sessions"]:
            print(f"serve sessions  : {summary['serve_sessions']} "
                  f"({summary['serve_requests']} requests: "
                  f"{summary['serve_hits']} hits, "
                  f"{summary['serve_coalesced']} coalesced, "
                  f"{summary['serve_executed']} executed)")
        if summary["audited"] or summary["audit_rows"] or summary["corrupt"]:
            print(f"worker audits   : {summary['audited']} audited, "
                  f"{summary['audit_failures']} mismatch(es), "
                  f"{summary['corrupt']} transport-corrupt row(s), "
                  f"{summary['audit_rows']} audit ledger row(s)")
        recent = [e for e in entries if is_sweep(e)][-5:]
        if recent:
            print("\nmost recent sweeps:")
            print(format_table([
                {
                    "jobs": e.get("jobs", 0),
                    "cached": e.get("cache_hits", 0),
                    "workers": e.get("workers", 0),
                    "wall_s": e.get("wall_seconds", 0.0),
                    "backend": e.get("backend", ""),
                }
                for e in recent
            ]))
        return 0
    enabled = cache_enabled_by_env()
    print(f"cache directory : {default_cache_dir()}")
    print(f"enabled         : {'yes' if enabled else 'no (REPRO_RESULT_CACHE)'}")
    print(f"entries         : {cache.entry_count()}")
    print(f"size            : {cache.size_bytes() / 1024:.1f} KiB")
    sweeps = sum(map(is_sweep, read_ledger()))
    print(f"bench ledger    : {ledger_path()} ({sweeps} sweeps recorded)")
    quarantined = quarantined_artifacts()
    if quarantined:
        print(f"quarantine      : {len(quarantined)} artifact(s) in "
              f"{default_quarantine_dir()} (details: repro cache fsck)")
    return 0


def _backend_notes() -> list[str]:
    """Every registered backend, with the reason when it is unavailable."""
    return [
        name if reason is None else f"{name} (unavailable: {reason})"
        for name, reason in backend_availability().items()
    ]


def _tenants_text(scenario) -> str:
    """A scenario's tenants as comma-separated ``BENCH/SCHED:SMS`` entries."""
    return ", ".join(
        f"{bench}/{sched}:{'+'.join(str(i) for i in sms)}"
        for _, bench, sched, sms in scenario.tenants
    )


def cmd_list(args) -> int:
    if args.backends:
        for note in _backend_notes():
            print(note)
        return 0
    if args.scenarios:
        from repro.scenarios.library import COLOCATION_SCENARIOS

        for scenario in COLOCATION_SCENARIOS.values():
            stagger = (
                " launches @" + "/".join(str(c) for c in scenario.launch_cycles)
                if scenario.launch_cycles else ""
            )
            print(f"{scenario.name:20s} {scenario.description} "
                  f"[{_tenants_text(scenario)}]{stagger}")
        return 0
    print("Benchmarks (Table II order):")
    rows = [
        {
            "name": spec.name,
            "suite": spec.suite,
            "class": spec.workload_class.name,
            "apki": spec.apki,
            "nwrp": spec.nwrp,
        }
        for spec in all_benchmarks()
    ]
    print(format_table(rows))
    from repro.scenarios.library import colocation_scenario_names

    print("\nSchedulers:", ", ".join(scheduler_names()))
    print("Backends:", ", ".join(_backend_notes()),
          "(select with --backend or REPRO_BACKEND)")
    print("Reproduce targets:", ", ".join(REPRODUCE_TARGETS), "(or 'all')")
    print("Co-location scenarios:", ", ".join(colocation_scenario_names()),
          "(run with repro run --scenario NAME; details: repro list --scenarios)")
    return 0


# ---------------------------------------------------------------------------
# repro scenarios
# ---------------------------------------------------------------------------

def _scenario_payload(scenario, *, cache_key=None, extra=None) -> dict:
    payload = scenario.to_json()
    if cache_key is not None:
        payload["cache_key"] = cache_key
    if extra:
        payload.update(extra)
    return payload


def cmd_scenarios_generate(args) -> int:
    from repro.scenarios import SCENARIO_SCHEMA, generate_scenarios

    if args.count < 1:
        raise ValueError("--count must be >= 1")
    scenarios = generate_scenarios(
        args.seed,
        args.count,
        scale=args.scale,
        max_sms=args.max_sms,
        max_tenants=args.max_tenants,
        stagger_span=args.stagger_span,
    )
    payload = {
        "schema": SCENARIO_SCHEMA,
        "generator": {
            "seed": args.seed,
            "count": args.count,
            "scale": args.scale,
            "max_sms": args.max_sms,
            "max_tenants": args.max_tenants,
            "stagger_span": args.stagger_span,
        },
        # Each entry carries the co-located request's content-addressed
        # cache key: the reproducibility receipt for the spec.
        "scenarios": [
            _scenario_payload(s, cache_key=s.request().cache_key())
            for s in scenarios
        ],
    }
    _emit_json(payload, args.out)
    return 0


def _run_search(args):
    from repro.scenarios import search

    return search(
        args.seed,
        restarts=args.restarts,
        steps=args.steps,
        scale=args.scale,
        max_sms=args.max_sms,
        max_tenants=args.max_tenants,
        stagger_span=args.stagger_span,
        workers=args.workers,
        cache=_cache_from_args(args),
    )


def cmd_scenarios_search(args) -> int:
    outcome = _run_search(args)
    if args.json or args.out:
        payload = {
            "seed": args.seed,
            "restarts": args.restarts,
            "steps": args.steps,
            "scale": args.scale,
            "best": _scenario_payload(
                outcome.best, extra={"objective": outcome.best_objective}
            ),
            "evaluations": outcome.evaluations,
            "reused": outcome.reused,
            "ledger": [
                {
                    **_scenario_payload(row.scenario, cache_key=row.cache_key),
                    "objective": row.objective,
                    "slowdowns": row.slowdowns,
                    "restart": row.restart,
                    "step": row.step,
                    "accepted": row.accepted,
                }
                for row in outcome.ledger
            ],
        }
        _emit_json(payload, args.out)
        return 0
    print(format_table([
        {
            "restart": row.restart,
            "step": row.step,
            "scenario": row.scenario.name,
            "max_slowdown": row.objective,
            "accepted": "yes" if row.accepted else "",
        }
        for row in outcome.ledger
    ]))
    print(f"\nbest: {outcome.best.name} with max slowdown "
          f"{outcome.best_objective:.3f} "
          f"({outcome.evaluations} points simulated, {outcome.reused} reused)")
    launches = outcome.best.launch_cycles or "simultaneous"
    print(f"  tenants: {_tenants_text(outcome.best)}")
    print(f"  launch cycles: {launches}, scale {outcome.best.scale}, "
          f"seed {outcome.best.seed}")
    print("  pin it: repro scenarios promote with the same --seed/--restarts/--steps")
    return 0


def cmd_scenarios_promote(args) -> int:
    from repro.scenarios import PROMOTED_PATH, promote, promoted_from_search

    if args.top_k < 1:
        raise ValueError("--top-k must be >= 1")
    outcome = _run_search(args)
    chosen = promoted_from_search(
        outcome, top_k=args.top_k, name_prefix=args.prefix
    )
    if args.dry_run:
        _emit_json([scenario.to_json() for scenario in chosen])
        return 0
    path = Path(args.path) if args.path else None
    all_promoted = promote(chosen, path=path)
    for scenario in chosen:
        print(f"promoted {scenario.name}: {scenario.description}")
    print(f"fixture: {path or PROMOTED_PATH} "
          f"({len(all_promoted)} promoted scenario(s) total)")
    print("next: regenerate the pinned goldens — "
          "PYTHONPATH=src python scripts/regen_goldens.py")
    return 0


# ---------------------------------------------------------------------------
# repro serve / repro submit
# ---------------------------------------------------------------------------
def _daemon_backend(args) -> Optional[str]:
    """The daemon's ``--backend``, resolved before binding (fails fast)."""
    return resolve_backend_name(args.backend) if args.backend is not None else None


def _run_until_drained(daemon) -> None:
    """Boot ``daemon`` and serve until it has drained (SIGTERM, ^C or
    ``POST /shutdown``).

    The announce line goes to stdout (flushed) so scripts — the CI smoke
    job, test harnesses, sweep coordinators — can parse the bound port
    when --port 0 asked for an ephemeral one.
    """
    import asyncio

    from repro.serve.http import run_daemon

    try:
        asyncio.run(run_daemon(daemon, announce=lambda m: print(m, flush=True)))
    except KeyboardInterrupt:
        pass  # the signal handler already drained; a second ^C lands here


def cmd_serve(args) -> int:
    from repro.serve import ReproService

    backend = _daemon_backend(args)
    if args.retry_max < 1:
        # Without --batch-timeout no RetryPolicy is built to reject it.
        raise ValueError("--retry-max must be >= 1")
    retry = None
    if args.retry_max > 1 or args.batch_timeout is not None:
        retry = RetryPolicy(
            max_attempts=args.retry_max,
            timeout_seconds=args.batch_timeout,
        )
    service = ReproService(
        host=args.host,
        port=args.port,
        cache=_cache_from_args(args),
        workers=args.workers,
        backend=backend,
        retry=retry,
        max_queue_depth=args.max_queue_depth,
    )
    _run_until_drained(service)
    snapshot = service.stats.snapshot()
    print(
        f"drained: {snapshot['requests']} requests "
        f"({snapshot['hits']} hits, {snapshot['coalesced']} coalesced, "
        f"{snapshot['executed']} executed, {snapshot['failed']} failed, "
        f"{snapshot['shed']} shed, {snapshot['timed_out']} timed out, "
        f"{snapshot['retried']} retried)",
        flush=True,
    )
    summary = service.drain_summary or {}
    if summary.get("drain_errors"):
        print(f"warning: {summary['drain_errors']} error(s) during drain:",
              file=sys.stderr)
        for message in summary.get("errors", []):
            print(f"  {message}", file=sys.stderr)
        return 1
    return 0


def cmd_worker(args) -> int:
    from repro.harness.distributed import WorkerServer

    server = WorkerServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=_daemon_backend(args),
        cache=_cache_from_args(args),
    )
    _run_until_drained(server)
    print(
        f"drained: {server.batches} batch(es), {server.jobs_done} job(s) done, "
        f"{server.jobs_failed} failed",
        flush=True,
    )
    return 0


def cmd_submit(args) -> int:
    import urllib.parse

    from repro.serve import DEFAULT_PORT
    from repro.serve.http import http_exchange

    if args.file:
        try:
            if args.file == "-":
                payload = json.load(sys.stdin)
            else:
                with open(args.file) as fh:
                    payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read request payload: {exc}") from None
    else:
        if not args.benchmark:
            raise ValueError("benchmark argument required (or use --file)")
        request = SimulationRequest(
            get_benchmark(args.benchmark).name,
            canonical_scheduler_name(args.scheduler),
            RunConfig(scale=args.scale, seed=args.seed),
            backend=args.backend,
        )
        payload = request.to_dict()

    url = urllib.parse.urlsplit(args.url)
    try:
        status, body, headers = http_exchange(
            url.hostname or "127.0.0.1",
            url.port or DEFAULT_PORT,
            "POST",
            "/simulate",
            json.dumps(payload).encode(),
            timeout=args.timeout,
        )
    except TimeoutError:
        # socket.timeout is TimeoutError: a server that accepts but never
        # answers (or a hung simulation) lands here, not in the generic
        # OSError arm — exit code 3 tells scripts "reachable but hung".
        print(f"error: request to {args.url} timed out after "
              f"{args.timeout}s (server accepted the connection but never "
              "responded)", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc} "
              "(is `repro serve` running?)", file=sys.stderr)
        return 1

    if status != 200:
        print(f"error: server answered {status}: {body.decode(errors='replace')}",
              file=sys.stderr)
        return 1
    if args.json:
        print(body.decode())
        return 0
    from repro.gpu.gpu import SimulationResult

    result = SimulationResult.from_dict(json.loads(body))
    source = headers.get("X-Repro-Source", "")
    job_id = headers.get("X-Repro-Job", "")
    print(f"{result.kernel_name} / {result.scheduler_name} "
          f"({result.backend} backend, {source or 'unknown'} via job {job_id})")
    rows = [{
        "ipc": result.ipc,
        "cycles": result.sm0.cycles,
        "l1d_hit_rate": result.sm0.l1d_hit_rate,
        "inter_sm_dram_conflicts": result.inter_sm_dram_conflicts,
    }]
    print(format_table(rows))
    return 0


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CIAO (IPDPS'18) reproduction: simulate, sweep and "
                    "regenerate the paper's figures.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = _option_parents()
    engine_flags = [shared["workers"], shared["no_cache"], shared["backend"]]

    p_run = sub.add_parser(
        "run",
        parents=engine_flags,
        help="run one benchmark under one or more schedulers, or a "
             "co-located multi-tenant launch (--tenants / --scenario)",
    )
    p_run.add_argument("benchmark", nargs="?", default=None,
                       help="Table II benchmark name (e.g. ATAX); omit when "
                            "using --tenants or --scenario")
    p_run.add_argument("schedulers", nargs="*",
                       help="scheduler names (default: gto)")
    _add_sweep_options(p_run, scale_default=None, seed_default=None)
    p_run.add_argument("--tenants", metavar="SPEC", default=None,
                       help="co-located tenants as [NAME=]BENCH[/SCHED]:SMS "
                            "entries, comma-separated (SMS: one id or lo-hi), "
                            "e.g. 'SM:0-1,compute=2DCONV/ciao-c:2'; runs on "
                            "the lock-step engine")
    p_run.add_argument("--scenario", metavar="NAME", default=None,
                       help="run a named co-location scenario from the "
                            "built-in library (see repro list --scenarios); "
                            "always reports slowdown vs isolated runs")
    p_run.add_argument("--isolated", action="store_true",
                       help="with --tenants: also run every tenant alone on "
                            "the same machine and report per-tenant slowdown")
    p_run.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=engine_flags,
                             help="benchmark x scheduler grid via the parallel engine")
    p_sweep.add_argument("-b", "--benchmarks", nargs="+", required=True,
                         help="benchmark names or selectors: all, lws, sws, ci, "
                              "memory-intensive, polybench, mars, rodinia")
    p_sweep.add_argument("-s", "--schedulers", nargs="+",
                         default=["gto", "ccws", "ciao-c"],
                         help="schedulers; the first is the normalisation baseline")
    _add_sweep_options(p_sweep)
    p_sweep.add_argument("--seed-per-job", action="store_true",
                         help="derive a deterministic per-(benchmark, scheduler) seed "
                              "from --seed instead of sharing one seed")
    p_sweep.add_argument("--on-error", choices=("raise", "skip", "retry"),
                         default="raise",
                         help="failure mode: abort the sweep (raise, default), "
                              "record typed JobFailure rows and continue "
                              "(skip), or re-dispatch failed jobs with "
                              "seeded backoff (retry); see docs/RESILIENCE.md")
    p_sweep.add_argument("--max-attempts", type=int, default=3, metavar="N",
                         help="executions any one job may consume with "
                              "--on-error retry (default 3)")
    p_sweep.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="per-job deadline on the pool path; a dispatch "
                              "running longer is abandoned and counted "
                              "timed_out (default: none)")
    p_sweep.add_argument("--straggler", type=float, default=None, metavar="SECONDS",
                         help="straggler deadline: a job still running after "
                              "this long is duplicated onto an idle worker, "
                              "first result wins (default: none)")
    p_sweep.add_argument("--manifest", default=None, metavar="PATH",
                         help="append per-job outcomes to this checkpoint "
                              "manifest as they settle (JSON lines; see "
                              "docs/RESILIENCE.md)")
    p_sweep.add_argument("--resume", default=None, metavar="MANIFEST",
                         help="resume an interrupted sweep: with the result "
                              "cache on, jobs already done are served from "
                              "the cache and only the rest execute; outcomes "
                              "keep appending to the same manifest")
    p_sweep.add_argument("--chaos", default=None, metavar="SEED:RATE[:KINDS]",
                         help="run the sweep under the seeded fault injector "
                              "(e.g. 7:0.2 or 7:0.2:fail+hang); same seed, "
                              "same faults — pair with --on-error retry")
    p_sweep.add_argument("--workers-at", default=None, metavar="HOST:PORT,...",
                         help="shard the sweep across these `repro worker` "
                              "processes instead of running locally; results "
                              "are bit-identical to a local sweep (see "
                              "docs/DISTRIBUTED.md)")
    p_sweep.add_argument("--worker-roster", default=None, metavar="PATH",
                         help='worker roster file: {"workers": '
                              '["host:port", ...]} (alternative to '
                              "--workers-at)")
    p_sweep.add_argument("--chunk-size", type=int, default=4, metavar="N",
                         help="jobs per dispatch chunk on the distributed "
                              "path — the most one lost worker forfeits "
                              "(default 4)")
    p_sweep.add_argument("--audit-rate", type=float, default=0.0, metavar="R",
                         help="distributed sweeps only: re-execute a seeded "
                              "fraction R of worker-returned jobs locally and "
                              "compare content digests; a mismatch discards "
                              "and re-dispatches that worker's outcomes "
                              "(default 0 = trust the fleet)")
    p_sweep.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", parents=engine_flags,
                           help="regenerate a figure/table of the paper as JSON")
    p_rep.add_argument("figures", nargs="+",
                       help=f"one or more of: {', '.join(REPRODUCE_TARGETS)}, all")
    _add_sweep_options(p_rep)
    p_rep.add_argument("--out", help="write JSON here instead of stdout")
    p_rep.set_defaults(func=cmd_reproduce)

    from repro.scenarios.generator import DEFAULT_STAGGER_SPAN

    p_scn = sub.add_parser(
        "scenarios",
        help="generate seeded co-location scenarios, search for worst-case "
             "interference, promote discoveries into the library",
    )
    scn_sub = p_scn.add_subparsers(dest="action", required=True)

    def add_space_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=1,
                       help="generator stream seed (default 1); the whole "
                            "command is deterministic in it")
        p.add_argument("--scale", type=float, default=0.05,
                       help="workload size multiplier (default 0.05)")
        p.add_argument("--max-sms", type=int, default=5,
                       help="largest sampled machine (default 5 SMs)")
        p.add_argument("--max-tenants", type=int, default=4,
                       help="most sampled tenants (default 4)")
        p.add_argument("--stagger-span", type=int, default=DEFAULT_STAGGER_SPAN,
                       help="exclusive upper bound on sampled launch-cycle "
                            f"offsets (default {DEFAULT_STAGGER_SPAN}; "
                            "0 disables staggered launches)")

    p_gen = scn_sub.add_parser(
        "generate",
        help="sample reproducible scenario specs (JSON, with cache keys)",
    )
    add_space_options(p_gen)
    p_gen.add_argument("--count", type=int, default=5,
                       help="scenarios to sample from the stream (default 5)")
    p_gen.add_argument("--out", metavar="PATH",
                       help="write JSON here instead of stdout")
    p_gen.set_defaults(func=cmd_scenarios_generate)

    def add_search_options(p: argparse.ArgumentParser) -> None:
        add_space_options(p)
        p.add_argument("--restarts", type=int, default=3,
                       help="independent hill climbs (default 3)")
        p.add_argument("--steps", type=int, default=5,
                       help="mutation proposals per climb (default 5)")

    search_flags = [shared["workers"], shared["no_cache"]]
    p_search = scn_sub.add_parser(
        "search",
        parents=search_flags,
        help="hill-climb the scenario space for worst-case interference",
    )
    add_search_options(p_search)
    p_search.add_argument("--json", action="store_true",
                          help="emit the full ledger as JSON instead of a table")
    p_search.add_argument("--out", metavar="PATH",
                          help="write the JSON search report here")
    p_search.set_defaults(func=cmd_scenarios_search)

    p_prom = scn_sub.add_parser(
        "promote",
        parents=search_flags,
        help="run a search and pin its worst discoveries into the scenario library",
    )
    add_search_options(p_prom)
    p_prom.add_argument("--top-k", type=int, default=2,
                        help="distinct best scenarios to promote (default 2)")
    p_prom.add_argument("--prefix", default="discovered",
                        help="promoted scenario name prefix (default 'discovered')")
    p_prom.add_argument("--path", metavar="PATH",
                        help="promoted fixture to write (default: the library's "
                             "committed promoted.json)")
    p_prom.add_argument("--dry-run", action="store_true",
                        help="print what would be promoted without writing")
    p_prom.set_defaults(func=cmd_scenarios_promote)

    from repro.harness.distributed import DEFAULT_WORKER_PORT
    from repro.serve.server import DEFAULT_PORT

    daemon_flags = [shared["no_cache"], shared["backend"]]
    p_serve = sub.add_parser(
        "serve",
        parents=daemon_flags,
        help="boot the long-lived simulation service (HTTP/JSON; see "
             "docs/SERVING.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help=f"TCP port (default {DEFAULT_PORT}; 0 picks an "
                              "ephemeral port, announced on stdout)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker threads running cache misses, one "
                              "simulation each (default 2)")
    p_serve.add_argument("--batch-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-miss deadline: a miss running longer "
                              "fails with BatchTimeoutError and its worker "
                              "thread is abandoned (default: none)")
    p_serve.add_argument("--retry-max", type=int, default=1, metavar="N",
                         help="attempts per request, with seeded backoff "
                              "between them (default 1 = no retry)")
    p_serve.add_argument("--max-queue-depth", type=int, default=None,
                         metavar="N",
                         help="load-shedding threshold: a new distinct miss "
                              "gets 503 + Retry-After while this many are in "
                              "flight (default: never shed)")
    p_serve.set_defaults(func=cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        parents=daemon_flags,
        help="boot a long-lived sweep worker for `repro sweep --workers-at` "
             "(HTTP/JSON batches; see docs/DISTRIBUTED.md)",
    )
    p_worker.add_argument("--host", default="127.0.0.1",
                          help="bind address (default 127.0.0.1)")
    p_worker.add_argument("--port", type=int, default=DEFAULT_WORKER_PORT,
                          help=f"TCP port (default {DEFAULT_WORKER_PORT}; 0 "
                               "picks an ephemeral port, announced on stdout)")
    p_worker.add_argument("--workers", type=int, default=1,
                          help="process-pool width for each batch this worker "
                               "executes (default 1 = in-process)")
    p_worker.set_defaults(func=cmd_worker)

    p_submit = sub.add_parser(
        "submit",
        help="submit one request to a running `repro serve` and print the result",
    )
    p_submit.add_argument("benchmark", nargs="?", default=None,
                          help="Table II benchmark name (omit with --file)")
    p_submit.add_argument("scheduler", nargs="?", default="gto",
                          help="scheduler name (default: gto)")
    p_submit.add_argument("--scale", type=float, default=0.3,
                          help="workload size multiplier (default 0.3)")
    p_submit.add_argument("--seed", type=int, default=1,
                          help="workload RNG seed (default 1)")
    p_submit.add_argument("--backend", default=None, metavar="NAME",
                          help="execution engine to request (default: let the "
                               "server decide)")
    p_submit.add_argument("--file", metavar="PATH",
                          help="POST this JSON request payload verbatim "
                               "(a SimulationRequest or MultiTenantRequest "
                               "wire form; '-' reads stdin)")
    p_submit.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
                          help="service base URL "
                               f"(default http://127.0.0.1:{DEFAULT_PORT})")
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          help="HTTP connect + read timeout in seconds "
                               "(default 300); a hung server exits with "
                               "code 3 instead of blocking forever")
    p_submit.add_argument("--json", action="store_true",
                          help="print the raw result wire form instead of a summary")
    p_submit.set_defaults(func=cmd_submit)

    p_cache = sub.add_parser("cache", help="inspect the result cache and bench ledger")
    p_cache.add_argument("action", nargs="?",
                         choices=("show", "stats", "clear", "fsck"),
                         default="show",
                         help="show the cache, print bench-ledger statistics, "
                              "clear the cache, or verify artifact integrity "
                              "(fsck; default: show)")
    p_cache.add_argument("--repair", action="store_true",
                         help="fsck: rewrite repairable legacy envelopes and "
                              "strip damaged manifest/ledger lines (original "
                              "bytes are preserved in quarantine first)")
    p_cache.add_argument("--manifest", action="append", default=None,
                         metavar="PATH", dest="fsck_manifest",
                         help="fsck: also scan this sweep manifest "
                              "(repeatable)")
    p_cache.add_argument("--ledger", default=None, metavar="PATH",
                         dest="fsck_ledger",
                         help="fsck: scan this ledger file instead of the "
                              "default bench ledger")
    p_cache.add_argument("--json", action="store_true",
                         help="fsck: emit the per-artifact report as JSON")
    p_cache.set_defaults(func=cmd_cache)

    p_list = sub.add_parser("list", help="list benchmarks, schedulers, backends, "
                                         "reproduce targets and co-location scenarios")
    p_list.add_argument("--backends", action="store_true",
                        help="list only the registered execution backends")
    p_list.add_argument("--scenarios", action="store_true",
                        help="list only the built-in co-location scenarios")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, BackendUnavailableError, SweepError) as exc:
        # Usage errors from every command (unknown names, flags, tenant
        # specs, worker rosters, wire forms, unavailable engines, aborted
        # sweeps): one clear line, not a traceback.  A KeyError's str() is
        # its repr, so print its message instead.
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
