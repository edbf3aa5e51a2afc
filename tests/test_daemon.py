"""The daemon core shared by ``repro serve`` and ``repro worker``.

Both daemons run under one runner (:func:`repro.serve.http.run_daemon`).
Scripts wait on its readiness line and may send SIGTERM the moment it
appears, so the signal handlers must be installed before it is announced.
"""

from __future__ import annotations

import asyncio
import signal

import pytest

from repro.harness.distributed import WorkerServer, run_worker
from repro.serve import ReproService, run_service

DAEMONS = {
    "serve": (lambda: ReproService(port=0, cache=None, workers=1), run_service),
    "worker": (lambda: WorkerServer(port=0, cache=None), run_worker),
}


@pytest.mark.parametrize("kind", sorted(DAEMONS))
def test_readiness_is_announced_after_signal_handlers(kind):
    make, run = DAEMONS[kind]
    daemon = make()
    announced = []

    def announce(line: str) -> None:
        announced.append(
            (line, signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL)
        )
        daemon.begin_shutdown()

    asyncio.run(run(daemon, announce=announce))
    assert announced == [(f"repro {kind} listening on {daemon.address}", True)]
