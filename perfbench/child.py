"""Workload processes of the benchmark, each started in a fresh interpreter.

    python3 perfbench/child.py fig8   --seed N --out PATH [--trace] [--setup-only]
    python3 perfbench/child.py serve  --seed N --seconds S --out PATH --tmp DIR [--trace] [--setup-only]
    python3 perfbench/child.py coord  --seed N --seconds S --out PATH [--trace] [--setup-only]
    python3 perfbench/child.py worker --out PATH [--trace]

Every role prints one readiness line on stdout once it could take its first
request (``READY`` or, for the worker, the worker's own announcement), then
runs its timed window and writes a JSON report to ``--out``.  ``--trace``
installs the span wrappers of :mod:`tracing` before anything runs; without
it the program runs unwrapped apart from one per-job completion clock.
``run.py`` starts these processes; the program only ever receives the
requests generated here from ``--seed``.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import contextlib
import itertools
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install, union_length  # noqa: E402

#: Figure 8's benchmark set: LWS, SWS and CI classes from all three suites.
FIG8_BENCHMARKS = ("ATAX", "SYRK", "KMN", "GESUMMV", "SS", "Backprop", "Gaussian")
FIG8_SCALE = 0.3

#: The 21 Table-II benchmarks the serving catalogue draws from.
TABLE2_BENCHMARKS = (
    "ATAX", "BICG", "MVT", "GESUMMV", "SYR2K", "SYRK", "KMN", "Kmeans", "II",
    "PVC", "SS", "SM", "WC", "2DCONV", "CORR", "Gaussian", "Backprop",
    "Hotspot", "Lud", "NN", "NW",
)
SERVE_SCHEDULERS = ("gto", "ccws", "ciao-c")
SERVE_SCALE = 0.05
SERVE_WORKLOAD_SEEDS = 4
#: Offered load (requests per second of the window) and Zipf exponent.
SERVE_RATE = 55.0
SERVE_ZIPF_S = 1.2
#: Zipf ranks submitted before the window (a daemon's warm cache).
SERVE_WARM_HEAD = 48

#: The library co-location scenarios (six built-in, two promoted).
COLO_SCENARIOS = (
    "thrash-vs-compute", "symmetric-thrash", "mixed-schedulers",
    "asymmetric-split", "quad-stress", "ciao-shield",
    "discovered-1", "discovered-2",
)
COLO_SCALE = 0.05
COLO_SCENARIO_SEEDS = 2


def derived_seed(seed: int, *parts) -> int:
    """A positive 31-bit seed derived from the workload seed and ``parts``."""
    return random.Random(":".join(map(str, (seed, *parts)))).randrange(1, 2**31)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ready(line: str = "READY") -> None:
    print(line, flush=True)


class JobClock:
    """Times each call of an engine's ``execute`` and keeps its result."""

    def __init__(self, backend_cls) -> None:
        self.calls: list[tuple[int, int]] = []
        self.results: list = []
        execute = backend_cls.execute
        clock = self

        def timed_execute(self, request):
            start = time.perf_counter_ns()
            result = execute(self, request)
            clock.calls.append((start, time.perf_counter_ns()))
            clock.results.append(result)
            return result

        backend_cls.execute = timed_execute


def summarize(result, group: str, digest) -> dict:
    """The model statistics of one result, plus its content digest."""
    per_sm = result.per_sm
    if len(result.per_tenant) > 1:
        units = [
            [tenant.benchmark, tenant.scheduler, tenant.stats.ipc]
            for tenant in result.per_tenant.values()
        ]
    elif result.per_tenant:
        units = []  # an isolated baseline: not a scheduler comparison
    else:
        units = [[result.kernel_name, result.scheduler_name, result.ipc]]
    return {
        "group": group,
        "units": units,
        "insts": sum(s.instructions_issued for s in per_sm),
        "cycles": max((s.cycles for s in per_sm), default=0),
        "l1d_hits": sum(s.l1d_hits for s in per_sm),
        "l1d_misses": sum(s.l1d_misses for s in per_sm),
        "l2_hit_rate": result.machine.l2_hit_rate,
        "dram_requests": sum(s.dram_requests for s in per_sm),
        "redirected_accesses": sum(s.redirected_accesses for s in per_sm),
        "throttle_events": sum(s.throttle_events for s in per_sm),
        "vta_hits": sum(s.vta_hits for s in per_sm),
        "inter_sm_dram_conflicts": result.inter_sm_dram_conflicts,
        "digest": digest(result),
    }


def raw_digest():
    """``result -> digest`` bound to the unwrapped codec and digest."""
    from repro.gpu.gpu import SimulationResult
    from repro.harness.integrity import result_digest

    to_dict = SimulationResult.to_dict
    return lambda result: result_digest(to_dict(result))


def write(path: str, report: dict, tracer) -> None:
    report["rss_mb"] = peak_rss_mb()
    report["trace"] = tracer.summary() if tracer is not None else None
    Path(path).write_text(json.dumps(report))


# ---------------------------------------------------------------------------
# fig8-cold: one cold Figure-8 regeneration per process
# ---------------------------------------------------------------------------
def run_fig8(args, tracer) -> None:
    from repro.gpu.vector.backend import VectorBackend
    from repro.harness import experiments

    digest = raw_digest()
    if tracer is not None:
        install(tracer)
    ready()
    if args.setup_only:
        return
    clock = JobClock(VectorBackend)
    seed = derived_seed(args.seed, "fig8-cold")
    start = time.perf_counter_ns()
    with maybe_span(tracer, "bench.window"):
        figure = experiments.fig8_main_comparison(
            benchmarks=FIG8_BENCHMARKS, scale=FIG8_SCALE, seed=seed,
            workers=1, cache=None, backend="vector",
        )
    window_ns = time.perf_counter_ns() - start
    jobs = [summarize(r, f"seed:{seed}", digest) for r in clock.results]
    reported = [
        figure["raw_ipc"][bench][sched]
        for bench in FIG8_BENCHMARKS for sched in figure["schedulers"]
    ]
    write(args.out, {
        "window_s": window_ns / 1e9,
        "jobs": jobs,
        # Every job is due when the round starts; latency runs to its result.
        "latency_ms": [(end - start) / 1e6 for _begin, end in clock.calls],
        "figure_matches_jobs": sorted(reported) == sorted(
            r.ipc for r in clock.results
        ),
        "seed": seed,
    }, tracer)


# ---------------------------------------------------------------------------
# serve-zipf: open-loop Poisson arrivals against an in-process ReproService
# ---------------------------------------------------------------------------
def serve_inputs(seed: int, seconds: float):
    """``(catalogue, warm-up indices, [(due offset, catalogue index)])``.

    The catalogue is 21 benchmarks x 3 schedulers x 4 workload seeds.  The
    service has seen the first three seeds: the head of their seeded Zipf
    ranking is submitted before the window, and the window's repeat traffic
    is a Poisson stream over that head (cache hits).  The fourth seed is
    new: each benchmark arrives once under one scheduler (7 per scheduler),
    evenly spaced over the window in seeded order (cache misses), so every
    seed gives the same miss mix and misses do not queue behind each other.
    """
    rng = random.Random(f"{seed}:serve-zipf")
    workload_seeds = [rng.randrange(1, 2**31) for _ in range(SERVE_WORKLOAD_SEEDS)]
    seen = [
        (bench, sched, wseed)
        for wseed in workload_seeds[:-1]
        for bench in TABLE2_BENCHMARKS
        for sched in SERVE_SCHEDULERS
    ]
    cold = [
        (bench, SERVE_SCHEDULERS[index % len(SERVE_SCHEDULERS)], workload_seeds[-1])
        for index, bench in enumerate(TABLE2_BENCHMARKS)
    ]
    rng.shuffle(seen)  # position in the list is the Zipf rank
    rng.shuffle(cold)
    head = seen[:SERVE_WARM_HEAD]
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(head))
    ))
    repeats = [
        (rng.uniform(0.0, seconds),
         min(bisect.bisect_left(cumulative, rng.random() * cumulative[-1]), len(head) - 1))
        for _ in range(round(SERVE_RATE * seconds) - len(cold))
    ]
    spacing = seconds / len(cold)
    firsts = [((i + 0.5) * spacing, len(head) + i) for i in range(len(cold))]
    return head + cold, list(range(len(head))), sorted(repeats + firsts)


def run_serve(args, tracer) -> None:
    asyncio.run(_serve(args, tracer))


async def _serve(args, tracer) -> None:
    from repro.gpu.vector.backend import VectorBackend
    from repro.harness.cache import ResultCache
    from repro.serve.server import ReproService

    digest = raw_digest()
    if tracer is not None:
        install(tracer)
    clock = JobClock(VectorBackend)
    tmp = Path(args.tmp)
    cache = ResultCache(tmp / "cache", quarantine=tmp / "quarantine")
    service = ReproService(host="127.0.0.1", port=0, cache=cache, backend="vector")
    await service.start()
    ready()
    try:
        if not args.setup_only:
            await _serve_window(args, tracer, clock, service, digest)
    finally:
        service.begin_shutdown()
        await service.wait_closed()


async def _serve_window(args, tracer, clock, service, digest) -> None:
    from repro.api import RunConfig, SimulationRequest

    catalogue, head, schedule = serve_inputs(args.seed, args.seconds)
    requests = [
        SimulationRequest(bench, sched, RunConfig(scale=SERVE_SCALE, seed=wseed))
        for bench, sched, wseed in catalogue
    ]
    warm = await asyncio.gather(
        *(service.submit(requests[i]) for i in head), return_exceptions=True
    )
    warm_failed = sum(isinstance(r, BaseException) for r in warm)
    before = service.stats.snapshot()
    clock.calls.clear()
    clock.results.clear()
    if tracer is not None:
        tracer.spans.clear()
        tracer.dispatched.clear()

    loop = asyncio.get_running_loop()
    records: list = [None] * len(schedule)

    async def fire(index: int, pick: int, due: float) -> None:
        late = time.perf_counter() - due
        try:
            result, source, record = await service.submit(requests[pick])
        except Exception as exc:  # shed, timeout or simulation error
            records[index] = {"pick": pick, "error": f"{type(exc).__name__}: {exc}"}
            return
        records[index] = {
            "pick": pick,
            "latency_ms": (time.perf_counter() - due) * 1e3,
            "late_ms": late * 1e3,
            "source": source,
            "job_id": record.job_id,
            "key": record.cache_key,
            "submitted_at": record.submitted_at,
            "result": result,
        }

    tasks = []
    with maybe_span(tracer, "bench.window"):
        start = time.perf_counter()
        for index, (offset, pick) in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(fire(index, pick, due)))
        await asyncio.gather(*tasks)
        window_s = time.perf_counter() - start
    after = service.stats.snapshot()
    stats = service.stats_payload()
    delta = {k: after[k] - before[k] for k in (
        "requests", "hits", "coalesced", "executed", "failed", "shed",
        "batches", "timed_out", "rejected",
    )}

    served = {}
    for rec in records:
        result = rec.pop("result", None)
        if result is None:
            continue
        rec["digest"] = digest(result)
        served.setdefault(rec["key"], (rec["pick"], result))
        if rec["source"] == "executed":
            if tracer is not None and rec["job_id"] in tracer.dispatched:
                waited = tracer.dispatched[rec["job_id"]] - rec["submitted_at"]
                rec["queue_wait_ms"] = waited * 1e3
    distinct = {}
    for key, (pick, _result) in served.items():
        bench, sched, wseed = catalogue[pick]
        distinct[key] = {"benchmark": bench, "scheduler": sched, "seed": wseed}
    entries = list((Path(args.tmp) / "cache").glob("*/*.pkl"))
    write(args.out, {
        "window_s": window_s,
        "records": records,
        "distinct": distinct,
        "warm_requests": len(head),
        "warm_failed": warm_failed,
        "stats": stats,
        "window_stats": delta,
        # Engine seconds of the window: the union of its execute() calls.
        "busy_s": union_length(
            clock.calls, min((c[0] for c in clock.calls), default=0),
            max((c[1] for c in clock.calls), default=0),
        ) / 1e9,
        "executed_insts": sum(
            s.instructions_issued for r in clock.results for s in r.per_sm
        ),
        # Model statistics of every distinct result the window served.
        "jobs": [
            summarize(result, f"seed:{distinct[key]['seed']}", digest)
            for key, (_pick, result) in sorted(served.items())
        ],
        "cache_entry_bytes": [p.stat().st_size for p in entries],
    }, tracer)


# ---------------------------------------------------------------------------
# remote-colo: coordinator + one `repro worker` process
# ---------------------------------------------------------------------------
def colo_jobs(seed: int):
    """``[(scenario name, co-located request, [isolated requests])]``."""
    from repro.scenarios.library import colocation_scenario

    out = []
    for index in range(COLO_SCENARIO_SEEDS):
        scenario_seed = derived_seed(seed, "remote-colo", index)
        for name in COLO_SCENARIOS:
            request = colocation_scenario(name, scale=COLO_SCALE, seed=scenario_seed)
            isolated = [request.isolated_request(t.name) for t in request.tenants]
            out.append((name, request, isolated))
    return out


def run_coord(args, tracer) -> None:
    from repro.analysis.metrics import tenant_slowdowns
    from repro.harness import distributed
    from repro.harness.parallel import JobFailure

    digest = raw_digest()
    if tracer is not None:
        install(tracer)
    ready()
    if args.setup_only:
        return
    port = int(sys.stdin.readline())
    worker = distributed.WorkerRef("127.0.0.1", port)
    scenarios = colo_jobs(args.seed)
    jobs = [job for _, request, isolated in scenarios for job in (request, *isolated)]

    # Every job of a round is due when the round starts; its latency runs
    # until the chunk carrying its result is back at the coordinator.
    latencies: list[float] = []
    client_run_batch = distributed.WorkerClient.run_batch

    def timed_run_batch(self, requests, **kwargs):
        answer = client_run_batch(self, requests, **kwargs)
        latencies.extend([(time.perf_counter_ns() - round_start) / 1e6] * len(requests))
        return answer

    distributed.WorkerClient.run_batch = timed_run_batch
    rounds = []
    with maybe_span(tracer, "bench.window"):
        while True:
            round_start = time.perf_counter_ns()
            outcome = distributed.run_distributed(jobs, [worker], cache=None, on_error="skip")
            rounds.append((time.perf_counter_ns() - round_start, outcome))
            # Whole rounds filling about ``--seconds`` (one when tracing).
            first_s = rounds[0][0] / 1e9
            target = 1 if tracer is not None else max(1, round(args.seconds / first_s))
            if len(rounds) >= target:
                break
    distributed.WorkerClient(worker).shutdown()

    reports = []
    for _, outcome in rounds:
        failures = sum(isinstance(r, JobFailure) for r in outcome.results)
        reports.append({
            "failed": failures,
            "retried": outcome.stats.retried,
            "digests": [
                None if isinstance(r, JobFailure) else digest(r)
                for r in outcome.results
            ],
        })
    results = rounds[0][1].results
    slowdowns, position = [], 0
    for _name, request, isolated in scenarios:
        group = results[position:position + 1 + len(isolated)]
        position += 1 + len(isolated)
        if any(isinstance(r, JobFailure) for r in group):
            continue
        baseline = {t.name: r for t, r in zip(request.tenants, group[1:])}
        slowdowns += [
            row["slowdown"] for row in tenant_slowdowns(group[0], baseline).values()
        ]
    write(args.out, {
        "window_s": sum(ns for ns, _ in rounds) / 1e9,
        "latency_ms": latencies,
        "rounds": reports,
        "jobs": [
            summarize(r, f"job:{i}", digest)
            for i, r in enumerate(results) if not isinstance(r, JobFailure)
        ],
        "tenant_slowdowns": slowdowns,
    }, tracer)


def run_worker_process(args, tracer) -> None:
    from repro.harness.distributed import WorkerServer, run_worker

    if tracer is not None:
        install(tracer)
    server = WorkerServer(host="127.0.0.1", port=0, workers=1, cache=None)
    asyncio.run(run_worker(server, announce=ready))
    if args.out:
        write(args.out, {"jobs_done": server.jobs_done}, tracer)


# ---------------------------------------------------------------------------
def maybe_span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


ROLES = {"fig8": run_fig8, "serve": run_serve, "coord": run_coord, "worker": run_worker_process}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--tmp", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    ROLES[args.role](args, Tracer() if args.trace else None)


if __name__ == "__main__":
    main()
