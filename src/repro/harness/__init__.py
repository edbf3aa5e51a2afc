"""Experiment harness.

Every path below speaks :class:`repro.api.SimulationRequest` — the one
canonical job descriptor — and executes through the pluggable backend layer
(:mod:`repro.backends`: ``reference`` serialized SMs, ``lockstep``
cycle-level multi-SM, selectable per call or via ``REPRO_BACKEND``).

* :mod:`repro.harness.runner` -- run one (benchmark, scheduler) pair on the
  simulator with the paper's per-benchmark settings (Best-SWL warp limits,
  statPCAL tokens, CIAO parameters, shared-cache enablement).
* :mod:`repro.harness.ledger` -- append-only bench ledger recording every
  sweep's wall time / cache hit rate across sessions (warm-vs-cold trends).
* :mod:`repro.harness.parallel` -- the sweep engine: fans independent
  (benchmark, scheduler, config) jobs over a process pool with
  deterministic per-job seeding and an in-process ``workers=1`` fallback.
* :mod:`repro.harness.cache` -- content-addressed on-disk result cache keyed
  by each request's ``cache_key()``: its canonical wire form (benchmark
  spec, scheduler, backend, run configuration) and a fingerprint of the
  package source.
* :mod:`repro.harness.experiments` -- one function per table / figure of the
  evaluation section, returning plain data structures (dicts / lists) that
  the benches print and docs/EXPERIMENTS.md records.
* :mod:`repro.harness.reporting` -- formatting helpers (aligned text tables,
  geometric means, normalisation, sweep statistics).
"""

from repro.api import SimulationRequest, execute
from repro.harness.cache import ResultCache
from repro.harness.ledger import read_ledger, record_sweep, summarize_ledger
from repro.harness.parallel import (
    SweepOutcome,
    SweepStats,
    derive_seed,
    run_jobs,
)
from repro.harness.reporting import (
    format_sweep_stats,
    format_table,
    geometric_mean,
    normalize_to,
)
from repro.harness.runner import RunConfig, run_benchmark, run_many


def __getattr__(name):
    # Lazy: experiments pulls in repro.analysis, which itself uses the
    # harness reporting helpers; importing it eagerly made
    # ``import repro.analysis`` fail when it ran first (circular import).
    if name == "experiments":
        import repro.harness.experiments as experiments

        return experiments
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "RunConfig",
    "SimulationRequest",
    "execute",
    "run_benchmark",
    "run_many",
    "read_ledger",
    "record_sweep",
    "summarize_ledger",
    "SweepOutcome",
    "SweepStats",
    "run_jobs",
    "derive_seed",
    "ResultCache",
    "format_table",
    "format_sweep_stats",
    "geometric_mean",
    "normalize_to",
    "experiments",
]
