"""Single-flight coalescing of identical in-flight simulation requests.

Two requests are *identical* exactly when their content-addressed cache
keys match (:meth:`repro.api.SimulationRequest.cache_key` — benchmark,
scheduler, full run configuration, backend and source fingerprint), so the
coalescer keys its in-flight registry on the same string the result cache
keys its entries on.  The first request for a key becomes the *leader* and
starts the simulation; every later request for the same key while the
leader is in flight becomes a *follower* that simply awaits the leader's
future — N identical concurrent requests cost exactly one simulation.

The registry is **loop-confined**: every method must be called from the
service's event-loop thread (worker threads hand results back through
``asyncio.run_coroutine_threadsafe`` / executor futures), so no lock is
needed and the lease check-then-insert is atomic by construction.
"""

from __future__ import annotations

import asyncio
from typing import Any, Tuple


class Coalescer:
    """In-flight futures keyed by content-addressed cache key."""

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Future] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    def inflight(self, key: str) -> bool:
        return key in self._inflight

    # ------------------------------------------------------------------
    def lease(self, key: str) -> Tuple[asyncio.Future, bool]:
        """The shared future for ``key`` and whether the caller leads.

        Returns ``(future, True)`` when no identical request is in flight —
        the caller is the leader and must run the request and settle the
        future with :meth:`resolve` or :meth:`fail`.  Returns
        ``(future, False)`` for followers, who just await it.  Await through
        ``asyncio.shield`` so one cancelled follower cannot cancel the
        shared future under everyone else.
        """
        future = self._inflight.get(key)
        if future is not None:
            return future, False
        future = self._inflight[key] = asyncio.get_running_loop().create_future()
        return future, True

    def resolve(self, key: str, value: Any) -> None:
        """Deliver the leader's result to every waiter and retire the key.

        The key is removed *before* waiters wake, so a request arriving
        after resolution starts a fresh flight (or, with a cache attached,
        is served from the entry the execution just wrote).
        """
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(value)

    def fail(self, key: str, exc: BaseException) -> None:
        """Deliver a failure to every waiter and retire the key."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_exception(exc)
