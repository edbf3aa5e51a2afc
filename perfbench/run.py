"""Benchmark of the CIAO reproduction: three workloads, one command.

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 20 --trace 0

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics with the program unwrapped; ``--trace 1`` makes one untraced and one
traced pass and prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a readable report.  See ``perfbench/README.md`` for
what each workload and metric is and why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child as workloads  # noqa: E402

ROOT = Path.cwd()
#: Back-to-back fresh launches whose median is ``setup_s``.
SETUP_LAUNCHES = 7
#: Deadline for every child process of one run (the run must end in 180 s).
RUN_LIMIT_S = 160.0
#: Jobs of each workload re-run in this process to check the outputs.
CHECK_SAMPLES = {"fig8-cold": 2, "serve-zipf": 3, "remote-colo": 3}

END_TO_END = {
    "setup_s": "s",
    "sim_kips": "kinst/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "vector.run_s": "s",
    "vector.ns_per_inst": "ns",
    "trace.pack_s": "s",
    "trace.kernels_extracted": "count",
    "trace.intern_hit_ratio": "ratio",
    "workloads.stream_s": "s",
    "lockstep.run_s": "s",
    "lockstep.ns_per_inst": "ns",
    "parallel.overhead_s": "s",
    "distributed.overhead_ms_per_job": "ms",
    "distributed.bytes_per_job": "B",
    "distributed.redispatches": "count",
    "serve.hit_p50_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.miss_p90_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.cache_hits": "count",
    "serve.coalesced": "count",
    "serve.executed": "count",
    "serve.failed": "count",
    "cache.peek_ms": "ms",
    "cache.put_ms": "ms",
    "cache.entry_kb": "kB",
    "api.cache_key_ms": "ms",
    "api.encode_ms": "ms",
    "api.decode_ms": "ms",
    "integrity.digest_ms": "ms",
    "model.sim_insts": "inst",
    "model.sim_cycles": "cycle",
    "model.ciao_c_vs_gto": "ratio",
    "model.ciao_c_vs_ccws": "ratio",
    "model.l1d_hit_rate": "ratio",
    "model.l2_hit_rate": "ratio",
    "model.dram_requests": "count",
    "model.redirected_accesses": "count",
    "model.throttle_events": "count",
    "model.vta_hits": "count",
    "model.inter_sm_dram_conflicts": "count",
    "model.tenant_slowdown_geomean": "ratio",
    "host.calib_ms": "ms",
    "host.calib_drift_pct": "%",
    "loadgen.late_p99_ms": "ms",
    "tracing.overhead_pct": "%",
    "tracing.coverage_pct": "%",
}
#: Engine-side spans: what ``parallel.run_jobs`` time is *not* overhead.
ENGINE_SPANS = (
    "backends.materialize_model", "vector.trace.kernel_trace_for_model",
    "VectorGPU.run", "backends.materialize_tenants", "lockstep.run_multi_tenant",
)


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
class Child:
    """One workload process, its stdout read line by line on a thread."""

    def __init__(self, ctx, role: str, *args: str, stdin: bool = False) -> None:
        self.role = role
        self.deadline = ctx.deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), role, *args],
            cwd=ROOT, env=ctx.env, text=True,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.ready_line = ""

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def wait_ready(self) -> float:
        """Seconds from spawn to the readiness line."""
        while True:
            try:
                when, line = self.lines.get(timeout=max(0.0, self.deadline - time.perf_counter()))
            except queue.Empty:
                raise ChildFailed(f"{self.role} was not ready before the run's deadline") from None
            if line is None:
                raise ChildFailed(f"{self.role} exited before it was ready "
                                  f"(exit code {self.proc.wait()})")
            if line.startswith("READY") or "listening on http://" in line:
                self.ready_line = line
                return when - self.started

    def send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=max(0.1, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{self.role} did not finish before the run's deadline") from None
        self.reader.join()
        if code != 0:
            raise ChildFailed(f"{self.role} exited with code {code}")

    def stop(self) -> None:
        """Terminate (gracefully first) and reap the process."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        self.reader.join(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False


class Context:
    def __init__(self, args) -> None:
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self._files = 0
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "REPRO_LEDGER": "0",
            "REPRO_LEDGER_PATH": str(self.tmp / "ledger.jsonl"),
            "REPRO_RESULT_CACHE": "0",
            "REPRO_CACHE_DIR": str(self.tmp / "default-cache"),
            "REPRO_QUARANTINE_DIR": str(self.tmp / "quarantine"),
        })
        self.env = env
        self.lines: list[str] = []

    def path(self, stem: str) -> Path:
        self._files += 1
        return self.tmp / f"{self._files:03d}-{stem}"

    def note(self, text: str) -> None:
        self.lines.append(text)


def read_report(path: Path) -> dict:
    return json.loads(path.read_text())


def setup_seconds(launch) -> list[float]:
    """Seconds-to-ready of ``SETUP_LAUNCHES`` back-to-back fresh launches."""
    return [launch() for _ in range(SETUP_LAUNCHES)]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def calib_ms() -> float:
    """Median of five timings of a fixed stdlib-only CPU loop (host speed)."""
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
        timings.append((time.perf_counter() - start) * 1e3)
    return statistics.median(timings)


def model_metrics(jobs: list[dict], slowdowns=()) -> dict:
    """``model.*`` metrics: simulated statistics, fixed by the seed."""

    def ratio(numerator: str, denominator: str) -> float:
        table: dict = {}
        for job in jobs:
            for bench, sched, ipc in job["units"]:
                table.setdefault((job["group"], bench), {})[sched] = ipc
        return geomean([
            row[numerator] / row[denominator]
            for row in table.values()
            if row.get(numerator) and row.get(denominator)
        ])

    hits = sum(j["l1d_hits"] for j in jobs)
    accesses = hits + sum(j["l1d_misses"] for j in jobs)
    return {
        "model.sim_insts": sum(j["insts"] for j in jobs),
        "model.sim_cycles": sum(j["cycles"] for j in jobs),
        "model.ciao_c_vs_gto": ratio("ciao-c", "gto"),
        "model.ciao_c_vs_ccws": ratio("ciao-c", "ccws"),
        "model.l1d_hit_rate": hits / accesses if accesses else 0.0,
        "model.l2_hit_rate": (
            statistics.fmean(j["l2_hit_rate"] for j in jobs) if jobs else 0.0
        ),
        "model.dram_requests": sum(j["dram_requests"] for j in jobs),
        "model.redirected_accesses": sum(j["redirected_accesses"] for j in jobs),
        "model.throttle_events": sum(j["throttle_events"] for j in jobs),
        "model.vta_hits": sum(j["vta_hits"] for j in jobs),
        "model.inter_sm_dram_conflicts": sum(j["inter_sm_dram_conflicts"] for j in jobs),
        "model.tenant_slowdown_geomean": geomean(slowdowns),
    }


class Spans:
    """Span summaries of one or more traced processes, merged by name."""

    def __init__(self, *summaries) -> None:
        self.summaries = [s for s in summaries if s]
        self.per_name: dict[str, dict] = {}
        for summary in self.summaries:
            for name, slot in summary["spans"].items():
                merged = self.per_name.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
                for field in merged:
                    merged[field] += slot[field]

    def count(self, name: str) -> int:
        return self.per_name.get(name, {}).get("count", 0)

    def total_s(self, name: str) -> float:
        return self.per_name.get(name, {}).get("total_ns", 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.per_name.get(name, {}).get("self_ns", 0) / 1e9

    def mean_ms(self, *names: str) -> float:
        calls = sum(self.count(n) for n in names)
        return sum(self.total_s(n) for n in names) * 1e3 / calls if calls else 0.0

    def bytes(self, name: str) -> int:
        return sum(s["bytes"].get(name, 0) for s in self.summaries)

    def coverage_pct(self) -> float:
        """Share of the timed window covered by spans below it."""
        total = self.total_s("bench.window")
        return 100.0 * (1.0 - self.self_s("bench.window") / total) if total else 0.0

    def layer_metrics(self, vector_insts: int, lockstep_insts: int) -> dict:
        harness = 0.0
        for summary in self.summaries:
            one = Spans(summary)
            if one.count("parallel.run_jobs"):
                harness += one.total_s("parallel.run_jobs") - sum(
                    one.total_s(name) for name in ENGINE_SPANS
                )
        lookups = self.count("vector.trace.kernel_trace_for_model")
        extracted = self.count("KernelTrace.__init__")
        return {
            "vector.run_s": self.self_s("VectorGPU.run"),
            "vector.ns_per_inst": (
                self.self_s("VectorGPU.run") * 1e9 / vector_insts if vector_insts else 0.0
            ),
            "trace.pack_s": self.self_s("WarpTrace.__init__"),
            "trace.kernels_extracted": extracted,
            "trace.intern_hit_ratio": 1.0 - extracted / lookups if lookups else 0.0,
            "workloads.stream_s": self.self_s("KernelTrace.warp"),
            "lockstep.run_s": self.self_s("lockstep.run_multi_tenant"),
            "lockstep.ns_per_inst": (
                self.self_s("lockstep.run_multi_tenant") * 1e9 / lockstep_insts
                if lockstep_insts else 0.0
            ),
            "parallel.overhead_s": harness,
            "cache.peek_ms": self.mean_ms("ResultCache.peek"),
            "cache.put_ms": self.mean_ms("ResultCache.put"),
            "api.cache_key_ms": self.mean_ms(
                "SimulationRequest.cache_key", "MultiTenantRequest.cache_key"
            ),
            "api.encode_ms": self.mean_ms("SimulationResult.to_dict"),
            "api.decode_ms": self.mean_ms("SimulationResult.from_dict"),
            "integrity.digest_ms": self.mean_ms("integrity.result_digest"),
            "tracing.coverage_pct": self.coverage_pct(),
        }

    def breakdown(self, window_s: float, top: int = 12) -> list[str]:
        """The largest self times, as shares of the timed window."""
        rows = sorted(self.per_name.items(), key=lambda kv: -kv[1]["self_ns"])[:top]
        return [
            f"  {name:<38} calls {slot['count']:>7}  self {slot['self_ns'] / 1e9:8.3f} s"
            f"  ({100.0 * slot['self_ns'] / 1e9 / window_s:5.1f}% of window)"
            for name, slot in rows
        ]


def empty_layers() -> dict:
    return {name: 0 for name in PER_LAYER}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def fig8_round(ctx, trace: bool) -> dict:
    out = ctx.path("fig8.json")
    args = ["--seed", str(ctx.seed), "--out", str(out)] + (["--trace"] if trace else [])
    with Child(ctx, "fig8", *args) as proc:
        proc.wait_ready()
        proc.finish()
    return read_report(out)


def fig8_setup(ctx) -> float:
    with Child(ctx, "fig8", "--setup-only") as proc:
        elapsed = proc.wait_ready()
        proc.finish()
    return elapsed


def fig8_rounds(ctx) -> list[dict]:
    """Whole cold regenerations filling about ``--seconds`` (at least one)."""
    rounds = [fig8_round(ctx, trace=False)]
    target = max(1, round(ctx.seconds / rounds[0]["window_s"]))
    while len(rounds) < target:
        rounds.append(fig8_round(ctx, trace=False))
    return rounds


def check_fig8(ctx, rounds: list[dict], outcome) -> None:
    """Every round identical; a seeded sample equal on the reference engine."""
    from dataclasses import replace

    from repro.api import RunConfig, SimulationRequest, execute
    from repro.harness.experiments import FIGURE8_SCHEDULERS
    from repro.harness.integrity import result_digest

    first = [job["digest"] for job in rounds[0]["jobs"]]
    for index, report in enumerate(rounds):
        outcome.attempt(len(report["jobs"]))
        if len(report["jobs"]) != len(workloads.FIG8_BENCHMARKS) * len(FIGURE8_SCHEDULERS):
            outcome.fail(f"round {index} returned {len(report['jobs'])} jobs")
        if not report["figure_matches_jobs"]:
            outcome.fail(f"round {index}: figure IPCs differ from the job results")
        if [job["digest"] for job in report["jobs"]] != first:
            outcome.fail(f"round {index} differs from round 0 on identical inputs")
    pairs = [(b, s) for b in workloads.FIG8_BENCHMARKS for s in FIGURE8_SCHEDULERS]
    rng = random.Random(f"{ctx.seed}:fig8-check")
    for index in rng.sample(range(len(pairs)), CHECK_SAMPLES["fig8-cold"]):
        bench, sched = pairs[index]
        outcome.attempt(1)
        config = RunConfig(scale=workloads.FIG8_SCALE, seed=rounds[0]["seed"])
        try:
            reference = execute(SimulationRequest(bench, sched, config, backend="reference"))
        except Exception as exc:  # a failed re-run is a failed operation
            outcome.fail(f"{bench}/{sched} on the reference engine: {exc!r}")
            continue
        digest = result_digest(replace(reference, backend="vector").to_dict())
        if digest != first[index]:
            outcome.fail(f"{bench}/{sched}: vector result differs from the reference engine")
        else:
            ctx.note(f"check: {bench}/{sched} identical on the reference engine")


def fig8_cold(ctx, outcome) -> dict:
    if ctx.trace:
        plain = fig8_round(ctx, trace=False)
        traced = fig8_round(ctx, trace=True)
        check_fig8(ctx, [plain, traced], outcome)
        spans = Spans(traced["trace"])
        metrics = empty_layers()
        metrics.update(spans.layer_metrics(sum(j["insts"] for j in traced["jobs"]), 0))
        metrics.update(model_metrics(traced["jobs"]))
        plain_kips = sum(j["insts"] for j in plain["jobs"]) / plain["window_s"]
        traced_kips = sum(j["insts"] for j in traced["jobs"]) / traced["window_s"]
        metrics["tracing.overhead_pct"] = 100.0 * (plain_kips / traced_kips - 1.0)
        ctx.note(f"traced window {traced['window_s']:.3f} s, untraced {plain['window_s']:.3f} s")
        ctx.lines += spans.breakdown(traced["window_s"])
        return metrics
    setups = setup_seconds(lambda: fig8_setup(ctx))
    rounds = fig8_rounds(ctx)
    check_fig8(ctx, rounds, outcome)
    latencies = [ms for report in rounds for ms in report["latency_ms"]]
    insts = sum(j["insts"] for report in rounds for j in report["jobs"])
    window = sum(report["window_s"] for report in rounds)
    ctx.note(f"setup launches (s): {', '.join(f'{s:.3f}' for s in setups)}")
    ctx.note(f"{len(rounds)} cold round(s), window {window:.3f} s, "
             f"{len(latencies)} job latencies from the round's start")
    return {
        "setup_s": statistics.median(setups),
        "sim_kips": insts / window / 1e3,
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "peak_rss_mb": max(report["rss_mb"] for report in rounds),
    }


def serve_setup(ctx) -> float:
    tmp = ctx.path("serve-setup")
    with Child(ctx, "serve", "--setup-only", "--tmp", str(tmp)) as proc:
        elapsed = proc.wait_ready()
        proc.finish()
    return elapsed


def serve_window(ctx, trace: bool) -> dict:
    out = ctx.path("serve.json")
    tmp = ctx.path("serve-tmp")
    args = ["--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
            "--out", str(out), "--tmp", str(tmp)] + (["--trace"] if trace else [])
    with Child(ctx, "serve", *args) as proc:
        proc.wait_ready()
        proc.finish()
    return read_report(out)


def check_serve(ctx, report: dict, outcome) -> list[dict]:
    """One digest per key; a seeded sample equal to direct ``execute``; the
    ``/stats`` books balance.  Returns the window's successful records."""
    from repro.api import RunConfig, SimulationRequest, execute
    from repro.harness.integrity import result_digest

    records = report["records"]
    outcome.attempt(report["warm_requests"] + len(records))
    if report["warm_failed"]:
        outcome.fail(f"{report['warm_failed']} warm-up request(s) failed")
    ok = [r for r in records if "error" not in r]
    for rec in records:
        if "error" in rec:
            outcome.fail(f"request failed: {rec['error']}")
    digests: dict[str, set] = {}
    for rec in ok:
        digests.setdefault(rec["key"], set()).add(rec["digest"])
    split = [key for key, seen in digests.items() if len(seen) > 1]
    if split:
        outcome.fail(f"{len(split)} cache key(s) answered with different results")
    stats = report["stats"]
    if not stats.get("reconciles"):
        outcome.fail(f"/stats does not reconcile: {stats}")
    if stats["requests"] != report["warm_requests"] + len(records):
        outcome.fail(f"/stats counts {stats['requests']} requests, "
                    f"{report['warm_requests'] + len(records)} were sent")
    rng = random.Random(f"{ctx.seed}:serve-check")
    keys = sorted(digests)
    for key in rng.sample(keys, min(CHECK_SAMPLES["serve-zipf"], len(keys))):
        spec = report["distinct"][key]
        outcome.attempt(1)
        try:
            direct = execute(SimulationRequest(
                spec["benchmark"], spec["scheduler"],
                RunConfig(scale=workloads.SERVE_SCALE, seed=spec["seed"]), backend="vector",
            ))
        except Exception as exc:  # a failed re-run is a failed operation
            outcome.fail(f"{spec}: direct execute failed: {exc!r}")
            continue
        if {result_digest(direct.to_dict())} != digests[key]:
            outcome.fail(f"{spec}: served result differs from a direct execute")
        else:
            ctx.note(f"check: {spec['benchmark']}/{spec['scheduler']} served == direct execute")
    return ok


def serve_zipf(ctx, outcome) -> dict:
    if ctx.trace:
        plain = serve_window(ctx, trace=False)
        traced = serve_window(ctx, trace=True)
        check_serve(ctx, plain, outcome)
        ok = check_serve(ctx, traced, outcome)
        spans = Spans(traced["trace"])
        metrics = empty_layers()
        metrics.update(spans.layer_metrics(traced["executed_insts"], 0))
        metrics.update(model_metrics(traced["jobs"]))
        hits = [r["latency_ms"] for r in ok if r["source"] == "cache"]
        misses = [r["latency_ms"] for r in ok if r["source"] != "cache"]
        waits = [r["queue_wait_ms"] for r in ok if "queue_wait_ms" in r]
        window = traced["window_stats"]
        entries = traced["cache_entry_bytes"]
        metrics.update({
            "serve.hit_p50_ms": percentile(hits, 50),
            "serve.miss_p50_ms": percentile(misses, 50),
            "serve.miss_p90_ms": percentile(misses, 90),
            "serve.queue_wait_ms": statistics.fmean(waits) if waits else 0.0,
            "serve.batch_size_mean": (
                window["executed"] / window["batches"] if window["batches"] else 0.0
            ),
            "serve.cache_hits": window["hits"],
            "serve.coalesced": window["coalesced"],
            "serve.executed": window["executed"],
            "serve.failed": window["failed"] + window["shed"] + window["timed_out"],
            "cache.entry_kb": sum(entries) / len(entries) / 1024 if entries else 0.0,
            "loadgen.late_p99_ms": percentile([r["late_ms"] for r in ok], 99),
        })
        plain_p50 = percentile([r["latency_ms"] for r in plain["records"] if "error" not in r], 50)
        traced_p50 = percentile([r["latency_ms"] for r in ok], 50)
        metrics["tracing.overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
        ctx.lines += spans.breakdown(traced["window_s"])
        return metrics
    setups = setup_seconds(lambda: serve_setup(ctx))
    report = serve_window(ctx, trace=False)
    ok = check_serve(ctx, report, outcome)
    latencies = [r["latency_ms"] for r in ok]
    window = report["window_stats"]
    ctx.note(f"setup launches (s): {', '.join(f'{s:.3f}' for s in setups)}")
    ctx.note(f"{len(report['records'])} requests in {report['window_s']:.3f} s: "
             f"{window['hits']} hits, {window['coalesced']} coalesced, "
             f"{window['executed']} executed, {window['failed']} failed, "
             f"{window['shed']} shed; generator late p99 "
             f"{percentile([r['late_ms'] for r in ok], 99):.3f} ms")
    return {
        "setup_s": statistics.median(setups),
        "sim_kips": report["executed_insts"] / report["busy_s"] / 1e3,
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "peak_rss_mb": report["rss_mb"],
    }


def colo_setup(ctx) -> float:
    with Child(ctx, "worker") as worker, Child(ctx, "coord", "--setup-only") as coord:
        ready = max(worker.wait_ready(), coord.wait_ready())
        coord.finish()
    return ready


def colo_run(ctx, trace: bool) -> tuple[dict, dict]:
    coord_out, worker_out = ctx.path("coord.json"), ctx.path("worker.json")
    flag = ["--trace"] if trace else []
    with Child(ctx, "worker", "--out", str(worker_out), *flag) as worker, Child(
        ctx, "coord", "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
        "--out", str(coord_out), *flag, stdin=True,
    ) as coord:
        worker.wait_ready()
        coord.wait_ready()
        coord.send(worker.ready_line.rsplit(":", 1)[1])
        coord.finish()
        worker.finish()
    return read_report(coord_out), read_report(worker_out)


def check_colo(ctx, coord: dict, outcome) -> None:
    """No re-dispatches, every round identical, a seeded sample equal to an
    in-process ``execute``."""
    from repro.api import execute
    from repro.harness.integrity import result_digest

    scenarios = workloads.colo_jobs(ctx.seed)
    jobs = [job for _, request, isolated in scenarios for job in (request, *isolated)]
    first = coord["rounds"][0]["digests"]
    for index, report in enumerate(coord["rounds"]):
        outcome.attempt(len(report["digests"]))
        if report["failed"]:
            outcome.fail(f"round {index}: {report['failed']} job(s) failed")
        if report["retried"]:
            outcome.fail(f"round {index}: {report['retried']} re-dispatch(es)")
        if report["digests"] != first:
            outcome.fail(f"round {index} differs from round 0 on identical inputs")
    rng = random.Random(f"{ctx.seed}:colo-check")
    for index in rng.sample(range(len(jobs)), CHECK_SAMPLES["remote-colo"]):
        outcome.attempt(1)
        try:
            digest = result_digest(execute(jobs[index]).to_dict())
        except Exception as exc:  # a failed re-run is a failed operation
            outcome.fail(f"job {index}: in-process execute failed: {exc!r}")
            continue
        if digest != first[index]:
            outcome.fail(f"job {index}: remote result differs from in-process execute")
        else:
            ctx.note(f"check: job {index} ({jobs[index].benchmark_name}) remote == in-process")


def remote_colo(ctx, outcome) -> dict:
    if ctx.trace:
        plain, _ = colo_run(ctx, trace=False)
        coord, worker = colo_run(ctx, trace=True)
        check_colo(ctx, plain, outcome)
        check_colo(ctx, coord, outcome)
        spans = Spans(coord["trace"], worker["trace"])
        jobs = len(coord["rounds"][0]["digests"]) * len(coord["rounds"])
        metrics = empty_layers()
        metrics.update(spans.layer_metrics(0, sum(j["insts"] for j in coord["jobs"])))
        metrics.update(model_metrics(coord["jobs"], coord["tenant_slowdowns"]))
        remote_s = Spans(worker["trace"]).total_s("parallel.run_jobs")
        metrics.update({
            "distributed.overhead_ms_per_job": (
                (spans.total_s("distributed.run_distributed") - remote_s) * 1e3 / jobs
            ),
            "distributed.bytes_per_job": (
                (spans.bytes("batch_request") + spans.bytes("batch_response")) / jobs
            ),
            "distributed.redispatches": sum(r["retried"] for r in coord["rounds"]),
        })
        plain_kips = sum(j["insts"] for j in plain["jobs"]) * len(plain["rounds"]) / plain["window_s"]
        traced_kips = sum(j["insts"] for j in coord["jobs"]) * len(coord["rounds"]) / coord["window_s"]
        metrics["tracing.overhead_pct"] = 100.0 * (plain_kips / traced_kips - 1.0)
        ctx.lines.append("coordinator:")
        ctx.lines += Spans(coord["trace"]).breakdown(coord["window_s"], top=6)
        ctx.lines.append("worker:")
        ctx.lines += Spans(worker["trace"]).breakdown(coord["window_s"], top=8)
        return metrics
    setups = setup_seconds(lambda: colo_setup(ctx))
    coord, worker = colo_run(ctx, trace=False)
    check_colo(ctx, coord, outcome)
    insts = sum(j["insts"] for j in coord["jobs"]) * len(coord["rounds"])
    ctx.note(f"setup launches (s): {', '.join(f'{s:.3f}' for s in setups)}")
    ctx.note(f"{len(coord['rounds'])} remote round(s), window {coord['window_s']:.3f} s, "
             f"{len(coord['latency_ms'])} job latencies from the round's start; "
             f"coordinator {coord['rss_mb']:.1f} MB + worker {worker['rss_mb']:.1f} MB")
    return {
        "setup_s": statistics.median(setups),
        "sim_kips": insts / coord["window_s"] / 1e3,
        "p50_ms": percentile(coord["latency_ms"], 50),
        "p99_ms": percentile(coord["latency_ms"], 99),
        "peak_rss_mb": coord["rss_mb"] + worker["rss_mb"],
    }


WORKLOADS = {"fig8-cold": fig8_cold, "serve-zipf": serve_zipf, "remote-colo": remote_colo}


class Outcome:
    """Attempted / failed operation counts and the failure messages."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0

    def attempt(self, count: int) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.failed += 1
        self.ctx.note(f"FAILED: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro package; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    ctx = Context(args)
    # The checks below run the program in this process: same environment.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update({k: v for k, v in ctx.env.items() if k.startswith("REPRO_")})
    outcome = Outcome(ctx)
    try:
        calib_start = calib_ms()
        values = WORKLOADS[args.workload](ctx, outcome)
        calib_end = calib_ms()
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        try:
            ctx.tmp.parent.rmdir()
        except OSError:
            pass
    calib = {
        "host.calib_ms": (calib_start + calib_end) / 2,
        "host.calib_drift_pct": 100.0 * (calib_end / calib_start - 1.0),
    }
    units = PER_LAYER if ctx.trace else END_TO_END
    if ctx.trace:
        values.update(calib)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"host calibration loop: {calib_start:.1f} ms at start, "
          f"{calib_end:.1f} ms at end")
    for line in ctx.lines:
        print(line)
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
