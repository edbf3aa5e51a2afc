"""Seeded fault injection: the ``chaos`` wrapper backend and its schedule.

Every recovery path in the resilience layer (retries, timeouts, straggler
re-dispatch, worker-crash respawn — see :mod:`repro.harness.parallel` and
docs/RESILIENCE.md) needs faults to recover *from*, and those faults must be
reproducible or the tests that exercise them are flaky by construction.
This module provides both halves:

* :class:`FaultPlan` — a deterministic, seeded fault schedule.  Whether a
  given execution attempt of a given job faults (and how) is a pure
  function of ``(plan seed, job fault key, attempt number)``: same seed ⇒
  same faults, on any machine, in any process.  The *fault key* is the
  request's content-addressed cache key computed with a pinned code
  version, so the schedule does not drift every time an unrelated source
  file changes.
* :class:`ChaosBackend` — an execution engine registered like any other
  (``repro.backends``, name ``"chaos"``) that delegates to a real engine
  but consults the active :class:`FaultPlan` first.  Fault kinds:

  ``fail``
      raise :class:`InjectedFault` instead of simulating;
  ``hang``
      sleep ``hang_seconds`` *then* simulate normally — the job is slow
      but correct, which is exactly what per-job timeouts and straggler
      re-dispatch must handle;
  ``crash``
      kill the worker process with ``os._exit`` mid-job (downgraded to an
      :class:`InjectedFault` when running in the main process, so
      ``workers=1`` chaos can never take the interpreter down);
  ``corrupt``
      simulate normally, then deterministically flip one bit in a numeric
      leaf of the result (:func:`corrupt_result`) — a *silent* wrongness
      fault that retries cannot fix; only the integrity layer (digest
      checks, ``--audit-rate`` verification, ``repro cache fsck``) catches
      it.  Opt-in only: never part of :data:`FAULT_KINDS`, the default
      kind set, so recovery-oriented chaos stays bit-exact.

Because the delegate engine produces the actual result, a chaos sweep over
the *default* kinds that completes under ``on_error="retry"`` is
bit-identical to a fault-free sweep — the acceptance gate of the CI
``chaos-smoke`` job (``scripts/chaos_smoke.py``); the ``integrity-smoke``
job covers the ``corrupt`` kind's detection end to end.

Configuration travels two ways so process-pool workers see the same plan
as the parent: :func:`configure_chaos` sets a module global (inherited by
forked workers and in-process runs) and mirrors the plan into the
``REPRO_CHAOS`` environment variable (``SEED:RATE[:KINDS]``, the same
grammar ``repro sweep --chaos`` accepts), which spawn-based pools read.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import struct
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: Environment variable carrying the active fault plan across processes.
CHAOS_ENV = "REPRO_CHAOS"

#: The *default* fault kinds — recoverable faults only, so a default chaos
#: sweep with retries stays bit-identical to a fault-free one.
FAULT_KINDS = ("fail", "hang", "crash")

#: Every kind a plan may name, including the opt-in silent-wrongness
#: ``corrupt`` kind (``--chaos SEED:RATE:corrupt``).
VALID_FAULT_KINDS = FAULT_KINDS + ("corrupt",)

#: Pinned code-version string for fault keys: the schedule is keyed on the
#: request *content*, not on the current source fingerprint, so it stays
#: stable across unrelated code changes (unlike result-cache keys).
FAULT_KEY_VERSION = "chaos-fault-plan-v1"


class InjectedFault(RuntimeError):
    """A failure injected by the chaos backend (seeded, reproducible)."""


class ChaosUnconfiguredError(RuntimeError):
    """The ``chaos`` backend was selected without an active fault plan."""


def _unit_draw(seed: int, *parts: object) -> float:
    """Deterministic uniform draw in [0, 1) from a seed and parts."""
    blob = ":".join([str(seed), *[str(p) for p in parts]])
    digest = hashlib.blake2b(blob.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, per-fault-key fault schedule (same seed ⇒ same faults)."""

    #: Schedule seed; the whole plan is deterministic in it.
    seed: int = 1
    #: Probability that any given (fault key, attempt) draw injects a fault.
    rate: float = 0.2
    #: Fault kinds this plan may inject (subset of
    #: :data:`VALID_FAULT_KINDS`; defaults to the recoverable trio).
    kinds: Tuple[str, ...] = FAULT_KINDS
    #: How long a ``hang`` fault sleeps before simulating normally.
    hang_seconds: float = 0.1
    #: Delegate engine name; ``None`` resolves to the environment default
    #: (``REPRO_BACKEND`` / ``"reference"``), never to ``chaos`` itself.
    delegate: Optional[str] = None
    #: When non-empty, faults are injected *only* on these attempt numbers
    #: — the deterministic "fail once, then succeed" shape the recovery
    #: tests pin (e.g. ``only_attempts=(1,)`` with ``rate=1.0``).
    only_attempts: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate!r}")
        unknown = [k for k in self.kinds if k not in VALID_FAULT_KINDS]
        if unknown:
            raise ValueError(
                f"unknown fault kind(s) {unknown} (choose from {VALID_FAULT_KINDS})"
            )
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be >= 0")

    # -- the schedule --------------------------------------------------
    def fault_for(self, fault_key: str, attempt: int) -> Optional[str]:
        """The fault kind injected for ``(fault_key, attempt)``, or ``None``.

        Pure and deterministic: callers (tests, the chaos-smoke script) can
        enumerate the schedule up front and assert recovery against it.
        """
        if not self.kinds or self.rate <= 0.0:
            return None
        if self.only_attempts and attempt not in self.only_attempts:
            return None
        if _unit_draw(self.seed, fault_key, attempt, "gate") >= self.rate:
            return None
        pick = _unit_draw(self.seed, fault_key, attempt, "kind")
        return self.kinds[min(int(pick * len(self.kinds)), len(self.kinds) - 1)]

    def scheduled_kinds(
        self, fault_keys: Sequence[str], *, attempts: int = 1
    ) -> dict[str, int]:
        """``{kind: count}`` over ``fault_keys`` x ``1..attempts`` draws."""
        counts: dict[str, int] = {}
        for key in fault_keys:
            for attempt in range(1, attempts + 1):
                kind = self.fault_for(key, attempt)
                if kind is not None:
                    counts[kind] = counts.get(kind, 0) + 1
        return counts

    # -- wire form (the --chaos / REPRO_CHAOS grammar) -----------------
    def to_spec(self) -> str:
        """``SEED:RATE[:KINDS]`` — round-trips through :meth:`from_spec`."""
        spec = f"{self.seed}:{self.rate!r}"
        if tuple(self.kinds) != FAULT_KINDS:
            spec += ":" + "+".join(self.kinds)
        return spec

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse ``SEED:RATE[:KIND+KIND...]`` (the ``--chaos`` argument)."""
        parts = [p.strip() for p in str(text).split(":")]
        if len(parts) < 2 or len(parts) > 3 or not parts[0] or not parts[1]:
            raise ValueError(
                f"bad chaos spec {text!r} (expected SEED:RATE[:KINDS], "
                "e.g. 7:0.2 or 7:0.2:fail+hang)"
            )
        try:
            seed = int(parts[0])
            rate = float(parts[1])
        except ValueError:
            raise ValueError(
                f"bad chaos spec {text!r}: SEED must be an int and RATE a float"
            ) from None
        kinds = FAULT_KINDS
        if len(parts) == 3 and parts[2]:
            kinds = tuple(k.strip() for k in parts[2].split("+") if k.strip())
        return cls(seed=seed, rate=rate, kinds=kinds)


# ---------------------------------------------------------------------------
# Active-plan plumbing (module global + environment mirror + attempt hints)
# ---------------------------------------------------------------------------
_ACTIVE_PLAN: Optional[FaultPlan] = None
_ATTEMPT_LOCAL = threading.local()


def configure_chaos(plan: Optional[FaultPlan], *, mirror_env: bool = True) -> None:
    """Install ``plan`` as the active fault plan (``None`` clears it).

    With ``mirror_env`` (the default) the plan's spec is also written to
    ``REPRO_CHAOS`` so spawn-based pool workers — which do not inherit this
    module's globals — reconstruct the same schedule.  Note the spec only
    carries ``seed``/``rate``/``kinds``; tests that rely on
    ``only_attempts`` or a custom delegate should run in-process or under a
    fork-based pool.
    """
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    if mirror_env:
        if plan is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = plan.to_spec()


def active_plan() -> Optional[FaultPlan]:
    """The configured plan, falling back to the ``REPRO_CHAOS`` environment."""
    if _ACTIVE_PLAN is not None:
        return _ACTIVE_PLAN
    spec = os.environ.get(CHAOS_ENV)
    if spec:
        return FaultPlan.from_spec(spec)
    return None


def set_current_attempt(attempt: int) -> None:
    """Record the execution attempt number for this thread's next job.

    The sweep engine's executors (``repro serve``'s misses included) call
    this before each dispatch so the chaos schedule advances with retries —
    without it every retry would replay attempt 1's fault forever.
    """
    _ATTEMPT_LOCAL.value = int(attempt)


def current_attempt() -> int:
    """The attempt number recorded for this thread (default 1)."""
    return getattr(_ATTEMPT_LOCAL, "value", 1)


def fault_key_for(request) -> str:
    """The stable fault-schedule key of ``request``.

    The content-addressed cache key with a *pinned* code version: two runs
    of the same job always draw the same faults, even across commits.
    """
    return request.cache_key(code_version=FAULT_KEY_VERSION)


# ---------------------------------------------------------------------------
# Seeded result corruption (the ``corrupt`` fault kind)
# ---------------------------------------------------------------------------
def _numeric_leaves(node, leaves) -> None:
    """Collect (container, slot) of every corruptible numeric leaf.

    Deterministic order (dict keys sorted); bools, non-finite floats and
    ``"schema"`` fields are skipped — flipping a schema stamp would make
    the payload *undecodable* rather than silently wrong, and the corrupt
    kind exists to model the silent case.
    """
    if isinstance(node, dict):
        for key in sorted(node, key=str):
            if key == "schema":
                continue
            value = node[key]
            if isinstance(value, bool):
                continue
            if isinstance(value, int) or (
                isinstance(value, float) and math.isfinite(value)
            ):
                leaves.append((node, key))
            else:
                _numeric_leaves(value, leaves)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            if isinstance(value, bool):
                continue
            if isinstance(value, int) or (
                isinstance(value, float) and math.isfinite(value)
            ):
                leaves.append((node, index))
            else:
                _numeric_leaves(value, leaves)


def _flip_bit(value):
    """Flip the lowest bit of a number (floats via their IEEE-754 image)."""
    if isinstance(value, int):
        return value ^ 1
    bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0] ^ 1
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def corrupt_result(result, *, seed: int, fault_key: str):
    """Return ``result`` with one seeded bit flip in a numeric leaf.

    The corruption is a pure function of ``(seed, fault_key)`` — the same
    draw discipline as the fault schedule — so tests can predict exactly
    which leaf diverges.  The flipped payload still decodes through
    ``SimulationResult.from_dict``; only its *value* (and therefore its
    content digest) is wrong.  Results with no finite numeric leaf are
    returned unchanged.
    """
    payload = result.to_dict()
    leaves: list = []
    _numeric_leaves(payload, leaves)
    if not leaves:
        return result
    pick = _unit_draw(seed, fault_key, "corrupt-leaf")
    container, slot = leaves[min(int(pick * len(leaves)), len(leaves) - 1)]
    container[slot] = _flip_bit(container[slot])
    return type(result).from_dict(payload)


# ---------------------------------------------------------------------------
# The wrapper backend
# ---------------------------------------------------------------------------
class ChaosBackend:
    """Delegating engine that injects the active plan's faults first."""

    name = "chaos"

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        plan = plan if plan is not None else active_plan()
        if plan is None:
            raise ChaosUnconfiguredError(
                "the 'chaos' backend needs a fault plan: call "
                "repro.harness.faults.configure_chaos(FaultPlan(...)), set "
                "REPRO_CHAOS=SEED:RATE, or pass --chaos SEED:RATE to repro sweep"
            )
        self.plan = plan

    def _delegate_name(self, request) -> str:
        from repro.api import MultiTenantRequest
        from repro.backends import resolve_backend_name

        name = self.plan.delegate
        if name is None:
            if isinstance(request, MultiTenantRequest):
                name = "lockstep"
            else:
                name = resolve_backend_name(None)
        name = resolve_backend_name(name)
        if name == self.name:
            raise ValueError(
                "the chaos backend cannot delegate to itself; set "
                "FaultPlan.delegate (or REPRO_BACKEND) to a real engine"
            )
        return name

    def execute(self, request):
        from repro.backends import get_backend

        fault_key = fault_key_for(request)
        fault = self.plan.fault_for(fault_key, current_attempt())
        if fault == "fail":
            raise InjectedFault(
                f"injected failure (seed {self.plan.seed}, attempt "
                f"{current_attempt()}) for {request.benchmark_name}/"
                f"{request.scheduler}"
            )
        if fault == "crash":
            if multiprocessing.current_process().name != "MainProcess":
                os._exit(13)  # a worker dying mid-job, as abruptly as possible
            raise InjectedFault(
                f"injected crash downgraded to failure in the main process "
                f"(seed {self.plan.seed}, attempt {current_attempt()})"
            )
        if fault == "hang":
            time.sleep(self.plan.hang_seconds)
        result = get_backend(self._delegate_name(request)).execute(request)
        if fault == "corrupt":
            result = corrupt_result(
                result, seed=self.plan.seed, fault_key=fault_key
            )
        return result
