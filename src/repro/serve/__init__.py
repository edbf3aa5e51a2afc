"""``repro.serve`` — the async simulation-as-a-service layer.

Assembles the serving primitives the rest of the package already provides
— versioned request wire forms, content-addressed cache keys, ``run_batch``
and the result cache — into a long-lived stdlib-only HTTP/JSON daemon with
request coalescing, live stats endpoints and the shared resilience policy
(per-miss timeouts, bounded per-request retry with backoff, load shedding
by misses in flight — see docs/RESILIENCE.md).  See docs/SERVING.md
and :mod:`repro.serve.server` for the full picture; the CLI front ends are
``repro serve`` and ``repro submit``.
"""

from repro.serve.coalesce import Coalescer
from repro.serve.server import (
    DEFAULT_PORT,
    BatchTimeoutError,
    RejectedRequest,
    ReproService,
    ServiceDraining,
    ServiceOverloaded,
    canonical_json,
    run_service,
)
from repro.serve.stats import BackendThroughput, ServiceStats

__all__ = [
    "BackendThroughput",
    "BatchTimeoutError",
    "Coalescer",
    "DEFAULT_PORT",
    "RejectedRequest",
    "ReproService",
    "ServiceDraining",
    "ServiceOverloaded",
    "ServiceStats",
    "canonical_json",
    "run_service",
]
