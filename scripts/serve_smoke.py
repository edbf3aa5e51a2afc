#!/usr/bin/env python
"""CI smoke test for the serving layer (``repro serve``).

Boots ``repro serve`` as a real subprocess on an ephemeral port, then:

1. submits a duplicate pair of identical requests concurrently and asserts
   exactly one simulation ran (``/stats`` coalesce counter == 1,
   executed == 1) with both response bodies bit-identical;
2. exercises the ``repro submit`` client against the live server;
3. asserts the ``/stats`` books reconcile
   (hits + coalesced + executed == requests served);
4. exercises graceful shutdown: ``POST /shutdown`` must drain and exit 0
   with the final "drained:" summary on stdout;
5. boots ``repro serve`` and ``repro worker`` once more and sends each
   SIGTERM the moment it announces: both must drain the same way;
6. boots ``repro serve`` with a result cache in its own temporary
   directory and POSTs one request three times: the answers must come
   from ``executed``, ``cache``, ``cache`` with byte-identical bodies and
   equal ``X-Repro-Digest`` headers, and ``/stats`` must count 2 hits and
   reconcile.

Standalone and stdlib-only, usable without installing the package::

    python scripts/serve_smoke.py

Exit code 0 on success, 1 on any failed assertion or timeout.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import RunConfig, SimulationRequest  # noqa: E402

STARTUP_TIMEOUT = 30.0
SHUTDOWN_TIMEOUT = 60.0


def fail(message: str, server: subprocess.Popen | None = None):
    print(f"SMOKE FAILURE: {message}", file=sys.stderr)
    if server is not None and server.poll() is None:
        server.kill()
    sys.exit(1)


def request(port: int, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        data = response.read()
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, headers, data
    finally:
        conn.close()


def boot(env: dict, *argv: str) -> tuple[subprocess.Popen, int]:
    """Start ``repro ARGV`` and return it with the port it announces."""
    name = argv[0]
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            fail(f"{name} exited early (rc={process.poll()})", process)
        print(f"[{name}] {line.rstrip()}")
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return process, int(match.group(1))
    fail(f"{name} never announced its port", process)


def expect_drained(process: subprocess.Popen, name: str, cause: str) -> None:
    """Require a clean exit: code 0 and the final "drained:" summary."""
    try:
        rc = process.wait(timeout=SHUTDOWN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not exit after {cause}", process)
    tail = process.stdout.read() or ""
    for line in tail.splitlines():
        print(f"[{name}] {line}")
    if rc != 0:
        fail(f"{name} exited rc={rc} after {cause}", process)
    if "drained:" not in tail:
        fail(f"{name} never printed its drain summary after {cause}", process)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    # Every simulation sleeps first (the chaos engine's "hang" fault, then
    # an unchanged result), so the duplicate pair overlaps in flight and
    # the second request *must* coalesce rather than racing a cache hit.
    server, port = boot(
        {**env, "REPRO_CHAOS": "1:1.0:hang"}, "serve", "--port", "0",
        "--no-cache", "--backend", "chaos", "--workers", "1",
    )

    status, _, _ = request(port, "GET", "/healthz")
    if status != 200:
        fail(f"/healthz answered {status}", server)

    payload = json.dumps(
        SimulationRequest("ATAX", "gto", RunConfig(scale=0.05)).to_dict()
    ).encode()

    # -- 1. the duplicate pair ------------------------------------------
    outcomes: list = [None, None]

    def submit(slot: int) -> None:
        outcomes[slot] = request(port, "POST", "/simulate", payload)

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    if any(outcome is None for outcome in outcomes):
        fail("a /simulate request never completed", server)
    (status_a, headers_a, body_a), (status_b, headers_b, body_b) = outcomes
    if status_a != 200 or status_b != 200:
        fail(f"/simulate answered {status_a}/{status_b}: "
             f"{body_a[:200]!r} {body_b[:200]!r}", server)
    if body_a != body_b:
        fail("duplicate requests returned different bytes", server)
    sources = sorted((headers_a["x-repro-source"], headers_b["x-repro-source"]))
    if sources != ["coalesced", "executed"]:
        fail(f"expected one executed + one coalesced, got {sources}", server)
    print(f"duplicate pair ok: {len(body_a)} identical bytes, sources {sources}")

    # -- 2. the repro submit client -------------------------------------
    submit_cmd = subprocess.run(
        [
            sys.executable, "-m", "repro", "submit", "SYRK", "gto",
            "--scale", "0.05", "--url", f"http://127.0.0.1:{port}", "--json",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if submit_cmd.returncode != 0:
        fail(f"repro submit failed (rc={submit_cmd.returncode}): "
             f"{submit_cmd.stderr[:500]}", server)
    if json.loads(submit_cmd.stdout).get("kind") != "SimulationResult":
        fail("repro submit did not print a result wire form", server)
    print("repro submit ok")

    # -- 3. the books reconcile -----------------------------------------
    status, _, body = request(port, "GET", "/stats")
    if status != 200:
        fail(f"/stats answered {status}", server)
    stats = json.loads(body)
    expected = {"requests": 3, "hits": 0, "coalesced": 1, "executed": 2, "failed": 0}
    actual = {key: stats.get(key) for key in expected}
    if actual != expected:
        fail(f"stats do not reconcile: expected {expected}, got {actual}", server)
    if not stats.get("reconciles"):
        fail(f"/stats reports reconciles={stats.get('reconciles')}", server)
    print(f"stats ok: {actual}")

    # -- 4. graceful shutdown -------------------------------------------
    status, _, body = request(port, "POST", "/shutdown", b"")
    if status != 200:
        fail(f"/shutdown answered {status}: {body[:200]!r}", server)
    expect_drained(server, "serve", "/shutdown")
    print("graceful shutdown ok")

    # -- 5. SIGTERM right at readiness drains both daemons --------------
    for name in ("serve", "worker"):
        daemon, _ = boot(env, name, "--port", "0", "--no-cache")
        daemon.send_signal(signal.SIGTERM)
        expect_drained(daemon, name, "SIGTERM")
        print(f"{name}: SIGTERM drain ok")

    # -- 6. repeated requests against a cache-backed service --------------
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        cached_leg(env, Path(tmp), payload)
    print("SERVE SMOKE PASSED")
    return 0


def cached_leg(env: dict, tmp: Path, payload: bytes) -> None:
    """One request POSTed three times: executed once, then two cache hits
    answered with the same bytes and digest."""
    server, port = boot(
        {
            **env,
            "REPRO_RESULT_CACHE": "1",
            "REPRO_CACHE_DIR": str(tmp / "cache"),
            "REPRO_QUARANTINE_DIR": str(tmp / "quarantine"),
        },
        "serve", "--port", "0", "--workers", "1",
    )
    answers = [request(port, "POST", "/simulate", payload) for _ in range(3)]
    for status, _, body in answers:
        if status != 200:
            fail(f"/simulate answered {status}: {body[:200]!r}", server)
    sources = [headers["x-repro-source"] for _, headers, _ in answers]
    if sources != ["executed", "cache", "cache"]:
        fail(f"expected executed, cache, cache; got {sources}", server)
    if len({body for _, _, body in answers}) != 1:
        fail("repeated requests returned different bytes", server)
    digests = {headers["x-repro-digest"] for _, headers, _ in answers}
    if len(digests) != 1:
        fail(f"repeated requests carried different digests: {digests}", server)
    status, _, body = request(port, "GET", "/stats")
    stats = json.loads(body) if status == 200 else {}
    if stats.get("hits") != 2 or not stats.get("reconciles"):
        fail(f"cached leg: expected 2 hits and reconciled books, got {stats}", server)
    print(f"cached leg ok: sources {sources}, {len(answers[0][2])} identical bytes")
    request(port, "POST", "/shutdown", b"")
    expect_drained(server, "serve", "/shutdown")


if __name__ == "__main__":
    sys.exit(main())
