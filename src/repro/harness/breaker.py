"""Circuit breakers with seeded half-open probing.

Replaces the coordinator's permanent ``fleet.dead`` blacklist (a worker
that ever faltered could never rejoin): each roster worker of a
distributed sweep sits behind one.

State machine (docs/RESILIENCE.md has the operator's view):

``closed``
    Normal operation — calls flow.  Failures accumulate; hitting
    ``failure_threshold`` consecutive failures trips the breaker open.
``open``
    Calls are refused until the probe deadline.  The deadline backs off
    exponentially with the number of times the breaker has opened, with
    a *seeded* jitter draw (the same blake2b unit-draw the chaos
    :class:`~repro.harness.faults.FaultPlan` uses) so a fleet of
    coordinators doesn't probe a recovering worker in lock-step.
``half-open``
    Past the deadline, :meth:`CircuitBreaker.allow` admits exactly one
    probe.  Success closes the breaker (a restarted worker rejoins);
    failure re-opens it with a longer deadline.

A success resets the consecutive-failure count but deliberately *not*
the open count: a target that keeps passing probes and then failing
again (e.g. a worker that is reachable but fails audits) backs off
further each round instead of oscillating at full speed.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.harness.faults import _unit_draw

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """A closed → open → half-open breaker guarding one unreliable target.

    Thread-safe; ``clock`` is injectable (tests drive it manually) and
    defaults to :func:`time.monotonic`.
    """

    def __init__(
        self,
        key: str = "",
        *,
        seed: int = 0,
        failure_threshold: int = 1,
        probe_base: float = 0.05,
        probe_factor: float = 2.0,
        probe_max: float = 30.0,
        jitter: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if probe_base < 0 or probe_max < 0:
            raise ValueError("probe delays must be >= 0")
        if probe_factor < 1.0:
            raise ValueError("probe_factor must be >= 1.0")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self.key = key
        self.seed = int(seed)
        self.failure_threshold = int(failure_threshold)
        self.probe_base = float(probe_base)
        self.probe_factor = float(probe_factor)
        self.probe_max = float(probe_max)
        self.jitter = float(jitter)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0  # consecutive failures while closed
        self._opens = 0  # times opened since construction (backoff exponent)
        self._probe_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def opens(self) -> int:
        with self._lock:
            return self._opens

    def probe_delay(self, opens: int) -> float:
        """The seeded open-duration before probe number ``opens``."""
        base = min(
            self.probe_max,
            self.probe_base * self.probe_factor ** max(0, opens - 1),
        )
        if not self.jitter or not base:
            return base
        draw = _unit_draw(self.seed, "probe", self.key, opens)
        return base * (1.0 + self.jitter * draw)

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In ``open`` state past the probe deadline this transitions to
        ``half-open`` and returns True exactly once — the caller *must*
        follow up with :meth:`record_success` or :meth:`record_failure`,
        otherwise the breaker stays half-open refusing everything.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN and self._clock() >= self._probe_at:
                self._state = HALF_OPEN
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = CLOSED
            self._failures = 0
            # _opens intentionally survives: see the module docstring.

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == HALF_OPEN or self._failures >= self.failure_threshold:
                self._opens += 1
                self._probe_at = self._clock() + self.probe_delay(self._opens)
                self._state = OPEN
                self._failures = 0

    def seconds_until_probe(self) -> float:
        """How long until the next probe is admitted (0 when not open)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0, self._probe_at - self._clock())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(key={self.key!r}, state={self.state!r}, "
            f"opens={self.opens})"
        )
