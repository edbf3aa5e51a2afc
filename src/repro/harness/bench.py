"""``repro bench`` — the simulator-throughput harness.

The sweep ledger (PR 2) tracks *sweep wall time*, which conflates cache
behaviour, pool startup and scheduling; it says nothing about how fast the
cycle engine itself is.  This module measures **simulated cycles per
second** — the metric every hot-path optimisation must move — on a pinned
workload matrix, so the perf trajectory of the simulator is reproducible
and queryable across commits:

* :func:`bench_matrix` pins the (benchmark x scheduler) grid: the standard
  figure workloads (one per workload class of Table II, under the Figure 8
  core schedulers) or a ``--quick`` smoke subset.
* :func:`run_bench` executes each case through :func:`repro.api.execute`
  (no result cache, no process pool — pure engine time), best-of-``repeats``
  wall time per case.
* :func:`write_report` stores the report as ``BENCH_<rev>.json`` next to
  your working tree; :func:`record_bench` appends a one-line summary to the
  bench ledger so ``repro cache stats`` shows the trajectory.
* :func:`compare_reports` checks a report against a checked-in baseline and
  lists every case whose throughput regressed beyond a tolerance — CI runs
  this via ``scripts/bench.py --quick --baseline benchmarks/bench_baseline.json``.

See docs/PERFORMANCE.md for how to read and regenerate the artifacts.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.api import RunConfig, SimulationRequest, execute
from repro.harness.ledger import append_entry, ledger_enabled
from repro.version import __version__

#: Version of the ``BenchReport`` JSON envelope.
BENCH_SCHEMA = 1

#: The standard figure workloads: one benchmark per workload class the paper
#: evaluates (LWS linear algebra, SWS, MapReduce, CI), under the Figure 8
#: core schedulers (baseline, locality-aware, full CIAO).
STANDARD_BENCHMARKS: tuple[str, ...] = ("ATAX", "SYRK", "WC", "Backprop")
STANDARD_SCHEDULERS: tuple[str, ...] = ("gto", "ccws", "ciao-c")
STANDARD_SCALE = 0.3

#: The CI smoke subset (a few seconds instead of a few minutes).
QUICK_BENCHMARKS: tuple[str, ...] = ("ATAX", "SYRK")
QUICK_SCHEDULERS: tuple[str, ...] = ("gto", "ciao-c")
QUICK_SCALE = 0.05

#: Co-location scenario measured by the quick matrix, so the multi-tenant
#: lock-step driver is perf-gated alongside the single-kernel engines.
QUICK_SCENARIO = "thrash-vs-compute"


@dataclass(frozen=True)
class BenchCase:
    """One pinned measurement: benchmark x scheduler x backend x sizing.

    When ``scenario`` is set the case measures a co-location scenario from
    :data:`repro.scenarios.library.COLOCATION_SCENARIOS` instead (always
    on the lock-step engine); ``benchmark`` / ``scheduler`` then only label
    the report row.
    """

    benchmark: str
    scheduler: str
    backend: str = "reference"
    scale: float = STANDARD_SCALE
    seed: int = 1
    scenario: Optional[str] = None

    def request(self):
        """The simulation request this case measures."""
        if self.scenario is not None:
            from repro.scenarios.library import colocation_scenario

            return colocation_scenario(
                self.scenario, scale=self.scale, seed=self.seed
            )
        return SimulationRequest(
            self.benchmark,
            self.scheduler,
            RunConfig(scale=self.scale, seed=self.seed),
            backend=self.backend,
        )


def bench_matrix(
    *,
    quick: bool = False,
    backend: str = "reference",
    benchmarks: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    seed: int = 1,
) -> list[BenchCase]:
    """The pinned (benchmark x scheduler) grid for one backend.

    Explicit ``benchmarks`` / ``schedulers`` / ``scale`` override the pinned
    matrix (used by tests and ad-hoc measurements); the defaults are the
    standard figure workloads, or the quick smoke subset when ``quick``.
    """
    pinned = benchmarks is None and schedulers is None
    if benchmarks is None:
        benchmarks = QUICK_BENCHMARKS if quick else STANDARD_BENCHMARKS
    if schedulers is None:
        schedulers = QUICK_SCHEDULERS if quick else STANDARD_SCHEDULERS
    if scale is None:
        scale = QUICK_SCALE if quick else STANDARD_SCALE
    cases = [
        BenchCase(benchmark=b, scheduler=s, backend=backend, scale=scale, seed=seed)
        for b in benchmarks
        for s in schedulers
    ]
    if quick and pinned:
        # Perf-gate the vector engine: one smoke case rides along in the
        # pinned quick matrix so CI holds the batched engine to its
        # committed floor.
        from repro.backends import resolve_backend_name

        if resolve_backend_name(backend) != "vector":
            cases.append(
                BenchCase(
                    benchmark=QUICK_BENCHMARKS[0],
                    scheduler=QUICK_SCHEDULERS[0],
                    backend="vector",
                    scale=scale,
                    seed=seed,
                )
            )
        # Perf-gate the multi-tenant lock-step driver from day one: one
        # co-location scenario rides along in the pinned quick matrix.
        cases.append(
            BenchCase(
                benchmark=f"scenario:{QUICK_SCENARIO}",
                scheduler="co-located",
                backend="lockstep",
                scale=scale,
                seed=seed,
                scenario=QUICK_SCENARIO,
            )
        )
    return cases


def git_revision() -> str:
    """Short git revision of the working tree (``"worktree"`` when unknown).

    Uncommitted changes append ``-dirty`` so reports from a modified tree
    can never overwrite (or be misattributed to) the clean commit's report.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "worktree"
    rev = out.stdout.strip()
    if out.returncode != 0 or not rev:
        return "worktree"
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return rev
    if status.returncode == 0 and status.stdout.strip():
        rev += "-dirty"
    return rev


def run_case(case: BenchCase, *, repeats: int = 1) -> dict:
    """Measure one case: best-of-``repeats`` wall time, cycles/sec.

    ``cycles`` sums the simulated cycle count over every SM, so multi-SM
    backends are credited for all the machine state they advance.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    request = case.request()
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = execute(request)
        wall = time.perf_counter() - start
        if wall < best:
            best = wall
    assert result is not None
    cycles = sum(stats.cycles for stats in result.per_sm)
    instructions = sum(stats.instructions_issued for stats in result.per_sm)
    return {
        **asdict(case),
        "backend": result.backend,  # resolved name (case may carry an alias)
        "wall_seconds": round(best, 6),
        "cycles": cycles,
        "cycles_per_second": round(cycles / best, 2) if best > 0 else 0.0,
        "warp_instructions": instructions,
        "warp_instructions_per_second": round(instructions / best, 2) if best > 0 else 0.0,
    }


def run_bench(
    cases: Sequence[BenchCase],
    *,
    repeats: int = 1,
    quick: bool = False,
    warmup: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run ``cases`` and assemble the versioned ``BenchReport`` dict."""
    if not cases:
        raise ValueError("bench needs at least one case")
    if warmup:
        # One throwaway run so import/alloc warm-up is not billed to case 0.
        run_case(cases[0], repeats=1)
    measured = []
    for case in cases:
        if progress is not None:
            progress(f"bench: {case.benchmark}/{case.scheduler}/{case.backend}")
        measured.append(run_case(case, repeats=repeats))
    total_wall = sum(c["wall_seconds"] for c in measured)
    total_cycles = sum(c["cycles"] for c in measured)
    return {
        "schema": BENCH_SCHEMA,
        "kind": "BenchReport",
        "version": __version__,
        "rev": git_revision(),
        "quick": quick,
        "repeats": repeats,
        "cases": measured,
        "aggregate": {
            "wall_seconds": round(total_wall, 6),
            "cycles": total_cycles,
            "cycles_per_second": round(total_cycles / total_wall, 2) if total_wall else 0.0,
        },
    }


def write_report(report: dict, out_dir: str | Path = ".") -> Path:
    """Write ``report`` as ``BENCH_<rev>.json`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{report.get('rev', 'worktree')}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


def record_bench(report: dict, *, path: Optional[Path] = None) -> Optional[Path]:
    """Append the report's summary line to the bench ledger (best-effort)."""
    if path is None and not ledger_enabled():
        return None
    backends = sorted({c["backend"] for c in report.get("cases", ())})
    entry = {
        "kind": "bench",
        "ts": round(time.time(), 3),
        "rev": report.get("rev", ""),
        "quick": bool(report.get("quick", False)),
        "cases": len(report.get("cases", ())),
        "backend": ",".join(backends),
        "wall_seconds": report.get("aggregate", {}).get("wall_seconds", 0.0),
        "cycles": report.get("aggregate", {}).get("cycles", 0),
        "cycles_per_second": report.get("aggregate", {}).get("cycles_per_second", 0.0),
    }
    return append_entry(entry, path=path)


# ---------------------------------------------------------------------------
# Baseline comparison (the CI regression gate)
# ---------------------------------------------------------------------------
def load_report(path: str | Path) -> dict:
    """Load and minimally validate a ``BENCH_*.json`` report."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("kind") != "BenchReport":
        raise ValueError(f"{path} is not a BenchReport")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {payload.get('schema')!r} "
            f"(supported: {BENCH_SCHEMA})"
        )
    return payload


def _case_key(case: dict) -> tuple:
    return (
        case.get("benchmark"),
        case.get("scheduler"),
        case.get("backend"),
        case.get("scale"),
        case.get("seed"),
    )


def case_deltas(report: dict, baseline: dict) -> list[dict]:
    """Per-case throughput comparison against ``baseline`` (informational).

    One row per case of ``report`` with its ``cycles_per_second``, the
    baseline's, and the speedup ratio / percentage delta.  Cases absent from
    the baseline — e.g. a backend the baseline predates, like new ``vector``
    rows — carry ``None`` for the baseline fields instead of failing, so the
    summary can always be produced.  Surfaced by ``repro bench --json`` as
    ``"deltas"``.
    """
    baseline_cases = {_case_key(c): c for c in baseline.get("cases", ())}
    deltas: list[dict] = []
    for case in report.get("cases", ()):
        current = case.get("cycles_per_second", 0.0)
        ref = baseline_cases.get(_case_key(case))
        reference = ref.get("cycles_per_second", 0.0) if ref is not None else None
        row = {
            "benchmark": case.get("benchmark"),
            "scheduler": case.get("scheduler"),
            "backend": case.get("backend"),
            "cycles_per_second": current,
            "baseline_cycles_per_second": reference,
            "speedup": None,
            "delta_pct": None,
        }
        if reference:
            row["speedup"] = round(current / reference, 3)
            row["delta_pct"] = round((current / reference - 1.0) * 100.0, 1)
        deltas.append(row)
    return deltas


def compare_reports(report: dict, baseline: dict, *, tolerance: float = 0.30) -> list[str]:
    """Regression check: current throughput vs a baseline report.

    Returns a human-readable message per regressed case (and one for the
    aggregate) where ``cycles_per_second`` fell below ``baseline * (1 -
    tolerance)``.  Cases present on only one side are ignored — the gate
    compares like with like, so report cases absent from the baseline (new
    ``vector`` rows against an older baseline) never trip it; use
    :func:`case_deltas` to *see* them.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    problems: list[str] = []
    baseline_cases = {_case_key(c): c for c in baseline.get("cases", ())}
    matched_current_cps = 0.0
    matched_baseline_cps_wall: list[tuple[float, float]] = []
    matched_wall = 0.0
    matched_cycles = 0
    for case in report.get("cases", ()):
        ref = baseline_cases.get(_case_key(case))
        if ref is None:
            continue
        matched_wall += case.get("wall_seconds", 0.0)
        matched_cycles += case.get("cycles", 0)
        matched_baseline_cps_wall.append(
            (ref.get("cycles_per_second", 0.0), ref.get("wall_seconds", 0.0))
        )
        current = case.get("cycles_per_second", 0.0)
        reference = ref.get("cycles_per_second", 0.0)
        if reference > 0 and current < reference * (1.0 - tolerance):
            problems.append(
                f"{case['benchmark']}/{case['scheduler']}/{case['backend']}: "
                f"{current:.0f} cyc/s < {(1.0 - tolerance):.0%} of baseline "
                f"{reference:.0f} cyc/s"
            )
    if matched_baseline_cps_wall and matched_wall > 0:
        matched_current_cps = matched_cycles / matched_wall
        baseline_cycles = sum(cps * wall for cps, wall in matched_baseline_cps_wall)
        baseline_wall = sum(wall for _, wall in matched_baseline_cps_wall)
        if baseline_wall > 0:
            baseline_cps = baseline_cycles / baseline_wall
            if baseline_cps > 0 and matched_current_cps < baseline_cps * (1.0 - tolerance):
                problems.append(
                    f"aggregate: {matched_current_cps:.0f} cyc/s < "
                    f"{(1.0 - tolerance):.0%} of baseline {baseline_cps:.0f} cyc/s"
                )
    return problems
