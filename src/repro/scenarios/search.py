"""Property-based search for worst-case co-location interference.

:func:`search` drives hill climbing with random restarts over the scenario
space — SM partition sizes, workload mixes, scheduler assignments, staggered
launch offsets and workload seeds — maximising the worst per-tenant slowdown
reported by :func:`repro.analysis.metrics.tenant_slowdowns`.

Every evaluation is submitted through the sweep engine
(:func:`repro.harness.parallel.run_jobs`) and therefore the content-addressed
result cache: re-running a search with the same seed replays entirely out of
the cache, and a *larger* budget resumes where the smaller one left off —
only new points simulate.  An in-memory ledger additionally dedupes points
within one search (mutations frequently revisit neighbours) and records
every evaluated point with its request cache key and objective, so a search
report is a reproducible artifact: any row can be re-simulated bit-for-bit
from its scenario spec.

The search is fully deterministic for a given ``(seed, restarts, steps)``
budget — the acceptance test pins one small budget and asserts the driver
rediscovers interference at least as bad as the worst hand-written scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.harness.experiments import colocation_report
from repro.harness.parallel import derive_seed
from repro.scenarios.generator import (
    BENCHMARK_POOL,
    DEFAULT_STAGGER_SPAN,
    SCHEDULER_POOL,
    generate_scenario,
)
from repro.scenarios.library import (
    BUILTIN_SCENARIO_NAMES,
    COLOCATION_SCENARIOS,
    ColocationScenario,
)


@dataclass(frozen=True)
class Evaluation:
    """One evaluated point of the search space (a ledger row)."""

    scenario: ColocationScenario
    #: The colocated request's content-addressed cache key: re-simulating
    #: the row's scenario spec reproduces the objective bit-for-bit.
    cache_key: str
    #: max per-tenant slowdown (the search objective).
    objective: float
    #: per-tenant slowdown values behind the objective.
    slowdowns: dict[str, float]
    restart: int
    step: int
    accepted: bool


@dataclass
class SearchOutcome:
    """Result of one :func:`search` run."""

    best: ColocationScenario
    best_objective: float
    ledger: list[Evaluation] = field(default_factory=list)
    #: Points actually simulated (ledger rows minus in-memory dedupe hits).
    evaluations: int = 0
    #: Proposals answered from the in-memory ledger without simulating.
    reused: int = 0

    def top(self, k: int) -> list[Evaluation]:
        """The ``k`` best *distinct* evaluated points, best first."""
        best_by_key: dict[str, Evaluation] = {}
        for row in self.ledger:
            kept = best_by_key.get(row.cache_key)
            if kept is None or row.objective > kept.objective:
                best_by_key[row.cache_key] = row
        ranked = sorted(
            best_by_key.values(), key=lambda row: (-row.objective, row.cache_key)
        )
        return ranked[:k]


def evaluate_scenario(
    scenario: ColocationScenario,
    *,
    workers: Optional[int] = None,
    cache="auto",
) -> tuple[float, dict[str, float], str]:
    """Objective of one scenario: its worst per-tenant slowdown.

    Submits the co-located run plus one isolated baseline per tenant through
    the sweep engine (cache-aware), and returns ``(objective, per-tenant
    slowdowns, colocated cache key)``.
    """
    request = scenario.request()
    _, report = colocation_report(request, workers=workers, cache=cache)
    slowdowns = {name: row["slowdown"] for name, row in report.items()}
    objective = max(slowdowns.values(), default=0.0)
    return objective, slowdowns, request.cache_key()


def builtin_best(
    *,
    scale: float = 0.05,
    workers: Optional[int] = None,
    cache="auto",
) -> tuple[str, float]:
    """Worst hand-written scenario at ``scale``: the search acceptance bar."""
    best_name, best_objective = "", 0.0
    for name in BUILTIN_SCENARIO_NAMES:
        objective, _, _ = evaluate_scenario(
            replace(COLOCATION_SCENARIOS[name], scale=scale),
            workers=workers,
            cache=cache,
        )
        if objective > best_objective:
            best_name, best_objective = name, objective
    return best_name, best_objective


# ---------------------------------------------------------------------------
# The search space: normalized points and mutations
# ---------------------------------------------------------------------------
def _normalize(scenario: ColocationScenario):
    """Reduce a scenario to its mutable coordinates.

    Partitions are kept as contiguous *sizes* (every generated scenario is
    contiguous; mutations preserve it), so boundary moves can never produce
    an invalid partition.
    """
    sizes = tuple(len(sm_ids) for _, _, _, sm_ids in scenario.tenants)
    benchmarks = tuple(benchmark for _, benchmark, _, _ in scenario.tenants)
    schedulers = tuple(scheduler for _, _, scheduler, _ in scenario.tenants)
    launches = scenario.launch_cycles or (0,) * len(sizes)
    return sizes, benchmarks, schedulers, launches, scenario.seed


def _materialize(
    point, *, name: str, description: str, scale: float
) -> ColocationScenario:
    """Inverse of :func:`_normalize`: rebuild the scenario from coordinates."""
    sizes, benchmarks, schedulers, launches, seed = point
    tenants = []
    start = 0
    for index, size in enumerate(sizes):
        sm_ids = tuple(range(start, start + size))
        start += size
        tenants.append(
            (f"t{index}-{benchmarks[index]}", benchmarks[index], schedulers[index], sm_ids)
        )
    return ColocationScenario(
        name=name,
        description=description,
        tenants=tuple(tenants),
        scale=scale,
        seed=seed,
        launch_cycles=launches if any(launches) else (),
    )


def _mutate(point, rng: random.Random, *, benchmarks, schedulers, stagger_span):
    """One random neighbour of ``point`` (always a valid scenario)."""
    sizes, benches, scheds, launches, seed = point
    n = len(sizes)
    ops = ["benchmark", "scheduler", "stagger", "reseed"]
    if n > 1 and max(sizes) > 1:
        ops.append("boundary")
    if n > 1:
        ops.append("swap")
    op = rng.choice(ops)
    if op == "boundary":
        donors = [i for i, size in enumerate(sizes) if size > 1]
        donor = rng.choice(donors)
        receiver = rng.choice([i for i in range(n) if i != donor])
        sizes = tuple(
            size + (1 if i == receiver else -1 if i == donor else 0)
            for i, size in enumerate(sizes)
        )
    elif op == "swap":
        i, j = rng.sample(range(n), 2)
        benches = list(benches)
        benches[i], benches[j] = benches[j], benches[i]
        benches = tuple(benches)
    elif op == "benchmark":
        i = rng.randrange(n)
        benches = tuple(
            rng.choice(list(benchmarks)) if k == i else b for k, b in enumerate(benches)
        )
    elif op == "scheduler":
        i = rng.randrange(n)
        scheds = tuple(
            rng.choice(list(schedulers)) if k == i else s for k, s in enumerate(scheds)
        )
    elif op == "stagger":
        i = rng.randrange(n)
        offset = 0 if rng.random() < 0.5 else rng.randrange(0, max(stagger_span, 1))
        launches = tuple(offset if k == i else v for k, v in enumerate(launches))
    else:  # reseed
        seed = rng.randint(1, 9999)
    return sizes, benches, scheds, launches, seed


def search(
    seed: int,
    *,
    restarts: int = 3,
    steps: int = 5,
    scale: float = 0.05,
    max_sms: int = 5,
    max_tenants: int = 4,
    stagger_span: int = DEFAULT_STAGGER_SPAN,
    benchmarks: Sequence[str] = BENCHMARK_POOL,
    schedulers: Sequence[str] = SCHEDULER_POOL,
    workers: Optional[int] = None,
    cache="auto",
) -> SearchOutcome:
    """Hill-climb with random restarts for the worst co-location slowdown.

    ``restarts`` independent climbs, each starting from scenario ``r`` of
    the generator stream ``seed`` and taking ``steps`` mutation proposals
    (accepting strict improvements).  Deterministic for a fixed budget;
    evaluated points are recorded in :attr:`SearchOutcome.ledger` and
    deduped both in memory and — across separate runs — by the result cache.
    """
    if restarts < 1:
        raise ValueError("search needs at least one restart")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    ledger: list[Evaluation] = []
    seen: dict[str, tuple[float, dict[str, float]]] = {}
    outcome = SearchOutcome(best=None, best_objective=float("-inf"))  # type: ignore[arg-type]

    def measure(scenario, restart, step, current_objective):
        objective, slowdowns, key = None, None, None
        request_key = scenario.request().cache_key()
        if request_key in seen:
            objective, slowdowns = seen[request_key]
            outcome.reused += 1
        else:
            objective, slowdowns, request_key = evaluate_scenario(
                scenario, workers=workers, cache=cache
            )
            seen[request_key] = (objective, slowdowns)
            outcome.evaluations += 1
        accepted = objective > current_objective
        ledger.append(
            Evaluation(
                scenario=scenario,
                cache_key=request_key,
                objective=objective,
                slowdowns=slowdowns,
                restart=restart,
                step=step,
                accepted=accepted,
            )
        )
        if objective > outcome.best_objective:
            outcome.best = scenario
            outcome.best_objective = objective
        return objective, accepted

    for restart in range(restarts):
        current = generate_scenario(
            seed,
            restart,
            scale=scale,
            max_sms=max_sms,
            max_tenants=max_tenants,
            stagger_span=stagger_span,
            benchmarks=benchmarks,
            schedulers=schedulers,
            name=f"search-{seed}-r{restart}",
        )
        current_objective, _ = measure(current, restart, 0, float("-inf"))
        rng = random.Random(derive_seed(seed, "mutate", restart))
        point = _normalize(current)
        for step in range(1, steps + 1):
            proposal_point = _mutate(
                point,
                rng,
                benchmarks=benchmarks,
                schedulers=schedulers,
                stagger_span=stagger_span,
            )
            proposal = _materialize(
                proposal_point,
                name=f"search-{seed}-r{restart}-s{step}",
                description=(
                    f"search (seed {seed}, restart {restart}, step {step})"
                ),
                scale=scale,
            )
            objective, accepted = measure(proposal, restart, step, current_objective)
            if accepted:
                point, current_objective = proposal_point, objective
    outcome.ledger = ledger
    return outcome
