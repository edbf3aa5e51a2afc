"""Reporting helpers: text tables, geometric means, normalisation."""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty input).

    Non-positive values are clamped to a tiny epsilon so a single degenerate
    run cannot produce a domain error; the evaluation only feeds IPC ratios,
    which are positive in practice.
    """
    values = list(values)
    if not values:
        return 0.0
    eps = 1e-12
    log_sum = sum(math.log(max(v, eps)) for v in values)
    return math.exp(log_sum / len(values))


def normalize_to(values: Mapping[str, float], baseline_key: str) -> dict[str, float]:
    """Normalise every value to ``values[baseline_key]`` (1.0 for the baseline)."""
    baseline = values.get(baseline_key, 0.0)
    if baseline <= 0:
        return {key: 0.0 for key in values}
    return {key: value / baseline for key, value in values.items()}


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Sequence[str] | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a list of dict rows as an aligned, pipe-separated text table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "-+-".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        " | ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered
    )
    return f"{header}\n{separator}\n{body}"


def format_sweep_stats(stats, cache_stats=None) -> str:
    """One-line summary of a sweep's execution statistics.

    ``stats`` is a :class:`repro.harness.parallel.SweepStats`;
    ``cache_stats`` optionally a :class:`repro.harness.cache.CacheStats` for
    the cache the sweep used.  The ``repro`` CLI prints this after every
    sweep so users can see parallelism and cache effectiveness at a glance.
    """
    parts = [
        f"{stats.jobs} job{'s' if stats.jobs != 1 else ''}",
        f"{stats.executed} simulated",
        f"{stats.cache_hits} cached ({stats.cache_hit_rate:.0%})",
        f"{stats.workers} worker{'s' if stats.workers != 1 else ''}",
        f"{stats.wall_seconds:.2f}s wall",
    ]
    if stats.executed:
        parts.append(f"{stats.wall_seconds / stats.executed:.2f}s/sim")
    # Resilience counters appear only when something actually went wrong,
    # so the healthy-sweep line stays as short as it always was.
    if getattr(stats, "failed", 0):
        parts.append(f"{stats.failed} failed")
    if getattr(stats, "retried", 0):
        parts.append(f"{stats.retried} retried")
    if getattr(stats, "timed_out", 0):
        parts.append(f"{stats.timed_out} timed out")
    if getattr(stats, "audited", 0):
        parts.append(f"{stats.audited} audited")
    if getattr(stats, "audit_failures", 0):
        parts.append(f"{stats.audit_failures} audit failures")
    if getattr(stats, "corrupt", 0):
        parts.append(f"{stats.corrupt} corrupt")
    if cache_stats is not None and cache_stats.errors:
        parts.append(f"{cache_stats.errors} cache errors")
    if cache_stats is not None and getattr(cache_stats, "quarantined", 0):
        parts.append(f"{cache_stats.quarantined} quarantined")
    return "sweep: " + ", ".join(parts)

