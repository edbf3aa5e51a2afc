"""Calibration helper: print normalised IPC per scheduler for a few benchmarks.

Not part of the library API; used during development to tune the workload
models so the scheduler ordering matches the paper's Figure 8.  Runs the
whole grid through the parallel sweep engine, so ``--workers`` fans the
runs out and repeated invocations on unchanged code are served from the
result cache.

Run:  python scripts/calibrate.py [benchmarks...] [--scale S] [--workers N]
"""

import argparse
import sys

from repro.api import SimulationRequest
from repro.harness.parallel import run_jobs
from repro.harness.reporting import format_sweep_stats, format_table, geometric_mean
from repro.harness.runner import RunConfig

SCHEDULERS = ["gto", "ccws", "best-swl", "statpcal", "ciao-t", "ciao-p", "ciao-c"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("benchmarks", nargs="*", default=["ATAX", "SYRK", "Backprop", "Gaussian"])
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args()

    config = RunConfig(scale=args.scale, seed=args.seed)
    jobs = [
        SimulationRequest(bench, sched, config)
        for bench in args.benchmarks
        for sched in SCHEDULERS
    ]
    outcome = run_jobs(jobs, workers=args.workers,
                       cache=None if args.no_cache else "auto")

    per_bench: dict[str, dict[str, object]] = {}
    for job, result in outcome:
        per_bench.setdefault(job.benchmark_name, {})[job.scheduler] = result

    rows = []
    norm_rows = {}
    for bench in args.benchmarks:
        results = per_bench[bench]
        base = results["gto"].ipc or 1e-9
        norm = {s: results[s].ipc / base for s in SCHEDULERS}
        norm_rows[bench] = norm
        row = {"bench": bench}
        row.update({s: norm[s] for s in SCHEDULERS})
        rows.append(row)
        print(f"--- {bench}")
        for s in SCHEDULERS:
            stats = results[s].sm0
            print(f"    {s:9s} ipc={results[s].ipc:.1f} l1={stats.l1d_hit_rate:.2f} "
                  f"sh={stats.shared_cache_hit_rate:.2f} vta={stats.vta_hits} "
                  f"aw={stats.active_warp_series.mean():.0f}")
    print()
    print(format_table(rows, float_format="{:.2f}"))
    print()
    gmeans = {s: geometric_mean(norm_rows[b][s] for b in norm_rows) for s in SCHEDULERS}
    print("geomean:", {s: round(v, 2) for s, v in gmeans.items()})
    print(format_sweep_stats(outcome.stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
