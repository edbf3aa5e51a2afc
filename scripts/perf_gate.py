#!/usr/bin/env python3
"""Throughput gate: perfbench runs of a parent tree against this checkout.

    python3 scripts/perf_gate.py BASE_ROOT WORKLOAD

Run it from the change's repository root, as perfbench is.  ``BASE_ROOT`` is
a checkout of the parent commit (a ``git worktree`` or ``git archive``
extract).  The script reads ``BENCHMARK.json`` from the working directory
and runs its command once per seed 1-5 on each side, ``--trace 0`` for
``run_seconds`` each, alternating which side runs first, and prints every
run and a verdict per end-to-end metric.

Exit 1 when any run is not ``"correct": true`` with 0 failed operations, or
when a metric regressed: the change's median is worse than the parent's by
more than the metric's ``bound`` (a fraction of the parent's median) *and*
by more than the parent's interquartile range.  A metric whose parent
interquartile range is already wider than its bound cannot be judged from
these runs: it reads ``unresolved`` and does not fail, unless every change
run beats every parent run, which reads ``ok``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: One pair of runs per seed; pair ``i`` runs the parent first when ``i`` is even.
SEEDS = (1, 2, 3, 4, 5)


def run_ok(run: dict) -> bool:
    """Whether one perfbench verdict reports correct output and no failures."""
    return run.get("correct") is True and run.get("failed") == 0


def run_perfbench(root: Path, command: list[str], workload: str, seed: int,
                  seconds: int) -> dict:
    """One untraced perfbench run in ``root``; its JSON verdict line.

    A run that exits non-zero or ends without a verdict line comes back as
    an incorrect run, and its output is echoed for diagnosis.
    """
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, ValueError):
        verdict = None
    if proc.returncode != 0 or not isinstance(verdict, dict):
        sys.stdout.write(proc.stdout + proc.stderr)
        return {"correct": False, "failed": None, "metrics": {}}
    return verdict


def values(runs: list[dict], name: str) -> list[float]:
    """The metric's value in every run that reported it."""
    return [run["metrics"][name]["value"] for run in runs
            if name in run.get("metrics", {})]


def quartiles(data: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, linear interpolation between the sorted values."""
    if len(data) < 2:
        return data[0], data[0], data[0]
    q1, median, q3 = statistics.quantiles(data, n=4, method="inclusive")
    return q1, median, q3


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The verdict on one end-to-end metric of ``BENCHMARK.json``."""
    row = {"metric": metric["name"], "bound": metric["bound"]}
    if not parent or not change:
        return {**row, "verdict": "no data"}
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    limit = metric["bound"] * abs(p_median)
    worse = sign * (c_median - p_median)  # > 0: the change reads worse
    if iqr > limit:
        beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
        verdict = "ok" if beats_all else "unresolved"
    elif worse > limit and worse > iqr:
        verdict = "REGRESSED"
    else:
        verdict = "ok"
    return {**row, "parent": (p_q1, p_median, p_q3), "change": (c_q1, c_median, c_q3),
            "delta": (c_median / p_median - 1.0) if p_median else 0.0,
            "verdict": verdict}


def gate(metrics: list[dict], parent: list[dict], change: list[dict]) -> tuple[list[dict], int]:
    """Judge the change's runs against the parent's: ``(rows, exit code)``."""
    rows = [judge(m, values(parent, m["name"]), values(change, m["name"]))
            for m in metrics]
    failed = any(row["verdict"] in ("REGRESSED", "no data") for row in rows)
    failed = failed or not all(run_ok(run) for run in parent + change)
    return rows, 1 if failed else 0


def format_run(side: str, seed: int, run: dict, metrics: list[dict]) -> str:
    status = "ok" if run_ok(run) else (
        f"FAILED (correct={run.get('correct')}, failed={run.get('failed')})")
    readings = "  ".join(
        f"{m['name']} {run['metrics'][m['name']]['value']:.4g}"
        for m in metrics if m["name"] in run.get("metrics", {})
    )
    return f"{side:<6}  seed {seed}  {status}  {readings}"


def format_rows(rows: list[dict]) -> str:
    def spread(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{'metric':<12} {'parent median [q1, q3]':<34} "
             f"{'change median [q1, q3]':<34} {'delta':>8} {'bound':>6}  verdict"]
    for row in rows:
        if "parent" not in row:
            lines.append(f"{row['metric']:<12} {'':<34} {'':<34} {'':>8} "
                         f"{row['bound']:>6.0%}  {row['verdict']}")
            continue
        lines.append(f"{row['metric']:<12} {spread(row['parent']):<34} "
                     f"{spread(row['change']):<34} {row['delta']:>+8.1%} "
                     f"{row['bound']:>6.0%}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_root", help="checkout of the parent commit")
    parser.add_argument("workload", help="a workload named in BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    base = Path(args.base_root).resolve()
    if not base.is_dir():
        parser.error(f"{base} is not a directory")
    roots = {"parent": base, "change": Path.cwd()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    metrics = spec["end_to_end"]
    for index, seed in enumerate(SEEDS):
        for side in ("parent", "change") if index % 2 == 0 else ("change", "parent"):
            run = run_perfbench(roots[side], spec["command"], args.workload, seed,
                                spec["run_seconds"])
            runs[side].append(run)
            print(format_run(side, seed, run, metrics), flush=True)
    rows, code = gate(metrics, runs["parent"], runs["change"])
    print(f"\n{args.workload}: {len(SEEDS)} pairs, {spec['run_seconds']} s runs, "
          f"parent {base}")
    print(format_rows(rows))
    print("gate: " + ("FAIL" if code else "pass"))
    return code


if __name__ == "__main__":
    sys.exit(main())
