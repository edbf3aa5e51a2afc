"""Tests for the serving layer (``repro.serve``).

The end-to-end class drives a real ``ReproService`` over real sockets (an
event loop on a background thread, ``http.client`` on this one), pinning
the PR's acceptance contract: N identical + M distinct concurrent requests
produce exactly M simulations, every response is byte-identical to a direct
``execute()``, and the ``/stats`` books reconcile
(hits + coalesced + executed == requests served).
"""

from __future__ import annotations

import asyncio
import copy
import http.client
import json
import pickle
import threading
import time

import pytest

from repro.api import (
    JobRecord,
    JobState,
    MultiTenantRequest,
    RunConfig,
    SimulationRequest,
    TenantSpec,
    decode_request,
    execute,
)
from repro.harness.cache import ResultCache
from repro.harness.faults import FaultPlan, configure_chaos
from repro.harness.integrity import result_digest
from repro.harness.parallel import RetryPolicy
from repro.serve import (
    BatchTimeoutError,
    Coalescer,
    ReproService,
    ServiceStats,
    canonical_json,
)

SMALL = RunConfig(scale=0.02, seed=1)


@pytest.fixture
def hanging_chaos():
    """Make every ``chaos``-backend simulation sleep first; the sleep holds
    a leader in flight for as long as a test needs it."""

    def configure(seconds: float) -> None:
        configure_chaos(
            FaultPlan(seed=1, rate=1.0, kinds=("hang",), hang_seconds=seconds)
        )

    yield configure
    configure_chaos(None)


def direct_bytes(request) -> bytes:
    """What ``/simulate`` must answer: canonical JSON of a direct run."""
    return canonical_json(execute(request).to_dict())


class ServiceHandle:
    """A live service on a background event-loop thread."""

    def __init__(self, **kwargs):
        kwargs.setdefault("host", "127.0.0.1")
        kwargs.setdefault("port", 0)
        self.service = ReproService(**kwargs)
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(timeout=15), "service failed to start"

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.service.start())
        self._started.set()
        self._loop.run_until_complete(self.service.wait_closed())
        self._loop.close()

    # -- client side ---------------------------------------------------
    def request(self, method: str, path: str, body: bytes | None = None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=120
        )
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            data = response.read()
            headers = {k.lower(): v for k, v in response.getheaders()}
            return response.status, headers, data
        finally:
            conn.close()

    def simulate(self, request):
        payload = json.dumps(request.to_dict()).encode()
        return self.request("POST", "/simulate", payload)

    def stats(self) -> dict:
        status, _, body = self.request("GET", "/stats")
        assert status == 200
        return json.loads(body)

    def wait_running(self, *, timeout: float = 10.0) -> None:
        """Block until the first job this service admitted is RUNNING."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            records = list(self.service.jobs.values())
            if records and records[0].state is JobState.RUNNING:
                return
            time.sleep(0.005)
        raise AssertionError("no admitted job started running")

    def shutdown(self, *, timeout: float = 60.0) -> None:
        if self._thread.is_alive():
            status, _, _ = self.request("POST", "/shutdown", b"")
            assert status == 200
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "service did not drain"


@pytest.fixture
def service_factory():
    handles: list[ServiceHandle] = []

    def start(**kwargs) -> ServiceHandle:
        handle = ServiceHandle(**kwargs)
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        try:
            handle.shutdown()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# End-to-end over real sockets
# ---------------------------------------------------------------------------
class TestServiceEndToEnd:
    def test_healthz(self, service_factory):
        handle = service_factory()
        status, _, body = handle.request("GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_simulate_matches_direct_execute(self, service_factory):
        handle = service_factory()
        request = SimulationRequest("ATAX", "gto", SMALL)
        status, headers, body = handle.simulate(request)
        assert status == 200
        assert headers["x-repro-source"] == "executed"
        assert headers["x-repro-cache-key"] == request.cache_key()
        assert body == direct_bytes(request)

    def test_cache_hit_served_instantly(self, service_factory, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        handle = service_factory(cache=cache)
        request = SimulationRequest("ATAX", "gto", SMALL)
        first = handle.simulate(request)
        second = handle.simulate(request)
        assert first[1]["x-repro-source"] == "executed"
        assert second[1]["x-repro-source"] == "cache"
        assert first[2] == second[2] == direct_bytes(request)
        stats = handle.stats()
        assert stats["hits"] == 1 and stats["executed"] == 1

    def test_memory_hit_answers_the_direct_body_and_digest(
        self, service_factory, tmp_path
    ):
        """A hit answered from the in-memory tier renders the same body as
        the other paths: the canonical JSON of a direct execute, and that
        body's digest."""
        handle = service_factory(cache=ResultCache(tmp_path / "cache"))
        request = SimulationRequest("SYRK", "gto", SMALL)
        direct = execute(request).to_dict()
        answers = [handle.simulate(request) for _ in range(3)]
        assert [h["x-repro-source"] for _, h, _ in answers] == [
            "executed", "cache", "cache",
        ]
        for status, headers, body in answers:
            assert status == 200
            assert body == canonical_json(direct)
            assert headers["x-repro-digest"] == result_digest(direct)
        assert request.cache_key() in handle.service.hot
        assert handle.stats()["hits"] == 2

    def test_acceptance_n_identical_plus_m_distinct(
        self, service_factory, tmp_path, hanging_chaos
    ):
        """N identical + M distinct concurrent requests -> M simulations."""
        cache = ResultCache(tmp_path / "cache")
        # Each simulation sleeps first, so the identical arrivals overlap
        # their in-flight leader.
        hanging_chaos(1.0)
        handle = service_factory(cache=cache, backend="chaos", workers=2)
        identical = SimulationRequest("ATAX", "gto", SMALL)
        distinct = [
            identical,  # the leader of the identical group
            SimulationRequest("SYRK", "gto", SMALL),
            SimulationRequest("ATAX", "lrr", SMALL),
        ]
        n_identical, requests = 4, []
        requests += [identical] * (n_identical - 1)
        requests += distinct
        m_distinct = len(distinct)

        outcomes = [None] * len(requests)

        def submit(slot: int) -> None:
            outcomes[slot] = handle.simulate(requests[slot])

        threads = [
            threading.Thread(target=submit, args=(i,))
            for i in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert all(outcome is not None for outcome in outcomes)
        assert all(status == 200 for status, _, _ in outcomes)

        # Exactly M simulations ran; the N-1 extra identical requests were
        # coalesced onto the in-flight leader or served from the cache.
        stats = handle.stats()
        assert stats["executed"] == m_distinct
        assert stats["coalesced"] + stats["hits"] == n_identical - 1
        assert stats["coalesced"] >= 1
        assert stats["requests"] == len(requests)
        # The books reconcile: every request answered exactly one way.
        assert stats["hits"] + stats["coalesced"] + stats["executed"] \
            == stats["served"] == stats["requests"]
        assert stats["reconciles"] is True

        # Byte-identity: responses equal a direct execute(), and the
        # identical group's responses match each other exactly.
        by_request = {}
        for request, (_, _, body) in zip(requests, outcomes):
            by_request.setdefault(request.cache_key(), set()).add(body)
        assert all(len(bodies) == 1 for bodies in by_request.values())
        for request in distinct:
            assert direct_bytes(request) in by_request[request.cache_key()]

    def test_multi_tenant_request_served(self, service_factory):
        handle = service_factory()
        request = MultiTenantRequest(
            tenants=(
                TenantSpec("a", "ATAX", "gto", sm_ids=(0,)),
                TenantSpec("b", "SYRK", "gto", sm_ids=(1,), address_space=1),
            ),
            run_config=SMALL,
        )
        status, headers, body = handle.simulate(request)
        assert status == 200
        payload = json.loads(body)
        assert payload["kind"] == "SimulationResult"
        assert body == direct_bytes(request)

    def test_bad_payloads_rejected_not_crashed(self, service_factory):
        handle = service_factory()
        cases = [
            b"this is not json",
            json.dumps({"kind": "SomethingElse"}).encode(),
            json.dumps({"kind": "SimulationRequest", "schema": 999}).encode(),
            json.dumps(
                SimulationRequest("NOPE-NOT-A-BENCHMARK", "gto", SMALL).to_dict()
            ).encode(),
        ]
        for body in cases:
            status, _, response = handle.request("POST", "/simulate", body)
            assert status == 400, response
        stats = handle.stats()
        assert stats["rejected"] == len(cases)
        assert stats["requests"] == 0  # none of them ever became a job
        # The server is still healthy afterwards.
        assert handle.request("GET", "/healthz")[0] == 200

    def test_unknown_path_and_wrong_method(self, service_factory):
        handle = service_factory()
        assert handle.request("GET", "/nope")[0] == 404
        assert handle.request("POST", "/healthz", b"")[0] == 405
        assert handle.request("GET", "/simulate")[0] == 405

    def test_jobs_endpoint_tracks_lifecycle(self, service_factory):
        handle = service_factory()
        request = SimulationRequest("ATAX", "gto", SMALL)
        _, headers, _ = handle.simulate(request)
        job_id = headers["x-repro-job"]
        status, _, body = handle.request("GET", f"/jobs/{job_id}")
        assert status == 200
        record = JobRecord.from_dict(json.loads(body))
        assert record.state is JobState.DONE
        assert record.source == "executed"
        assert record.cache_key == request.cache_key()
        assert record.benchmark == "ATAX" and record.scheduler == "gto"
        status, _, body = handle.request("GET", "/jobs")
        assert status == 200
        listed = json.loads(body)["jobs"]
        assert any(j["data"]["fields"]["job_id"] == job_id for j in listed)
        assert handle.request("GET", "/jobs/unknown-id")[0] == 404

    def test_graceful_drain_finishes_inflight_work(
        self, service_factory, hanging_chaos
    ):
        hanging_chaos(0.5)
        handle = service_factory(backend="chaos")
        request = SimulationRequest("ATAX", "gto", SMALL)
        outcome = []

        def submit() -> None:
            outcome.append(handle.simulate(request))

        thread = threading.Thread(target=submit)
        thread.start()
        # Shut down while the miss runs: drain must let it finish.
        handle.wait_running()
        handle.shutdown()
        thread.join(timeout=300)
        assert outcome and outcome[0][0] == 200
        assert outcome[0][2] == direct_bytes(request)
        # The listener is closed: new connections are refused.
        with pytest.raises(OSError):
            handle.request("GET", "/healthz")

    def test_leader_starts_running_at_once(self, hanging_chaos):
        """An admitted miss starts running within a few loop turns."""
        hanging_chaos(0.2)

        async def scenario():
            service = ReproService(port=0, workers=1, backend="chaos")
            await service.start()
            pending = asyncio.ensure_future(
                service.submit(SimulationRequest("ATAX", "gto", SMALL))
            )
            for _ in range(3):
                await asyncio.sleep(0)
            (record,) = service.jobs.values()
            state = record.state
            _, source, _ = await asyncio.wait_for(pending, timeout=60)
            service.begin_shutdown()
            await service.wait_closed()
            return state, source

        state, source = asyncio.run(scenario())
        assert state is JobState.RUNNING
        assert source == "executed"

    def test_simulation_failure_reported_and_reconciled(self, service_factory):
        handle = service_factory()
        # Valid names (the cache-key pass accepts it) but a geometry that
        # fails at materialisation time, inside the engine.
        bad = SimulationRequest("ATAX", "gto", RunConfig(scale=0.02, num_ctas=0))
        status, _, body = handle.simulate(bad)
        assert status == 500
        error = json.loads(body)["error"]
        assert bad.cache_key() in error  # BatchExecutionError attribution
        good = SimulationRequest("ATAX", "gto", SMALL)
        assert handle.simulate(good)[0] == 200
        stats = handle.stats()
        assert stats["failed"] == 1 and stats["executed"] == 1
        assert stats["requests"] == 2 and stats["reconciles"] is True


class TestResilienceEndToEnd:
    """Acceptance: an injected batch timeout and a shed request, with the
    /stats books still reconciling exactly."""

    def test_timeout_and_shed_reconcile(self, service_factory, hanging_chaos):
        # Every simulation on this service hangs far past the per-miss
        # deadline, so the first miss is guaranteed to time out.
        hanging_chaos(30.0)
        handle = service_factory(
            backend="chaos",
            workers=1,
            retry=RetryPolicy(max_attempts=1, timeout_seconds=1.0),
            max_queue_depth=1,
        )
        slow = SimulationRequest("ATAX", "gto", SMALL)
        outcomes = []

        def submit() -> None:
            outcomes.append(handle.simulate(slow))

        thread = threading.Thread(target=submit)
        thread.start()
        # Wait for the slow request to run ...
        handle.wait_running()
        assert len(handle.service.coalescer) == 1
        # ... so a distinct arrival finds the in-flight limit reached and is
        # shed with 503 + Retry-After instead of piling up.
        status, headers, body = handle.simulate(
            SimulationRequest("SYRK", "gto", SMALL)
        )
        assert status == 503
        assert int(headers["retry-after"]) >= 1
        assert "at its limit" in json.loads(body)["error"]

        # The running request hangs and fails against its 1s deadline.
        thread.join(timeout=60)
        assert outcomes and outcomes[0][0] == 500
        assert "deadline" in json.loads(outcomes[0][2])["error"]

        stats = handle.stats()
        assert stats["requests"] == 2
        assert stats["shed"] == 1
        assert stats["failed"] == 1
        assert stats["timed_out"] == 1
        assert stats["executed"] == 0
        # Extended invariant:
        # hits + coalesced + executed + failed + shed == requests.
        assert stats["hits"] + stats["coalesced"] + stats["executed"] \
            + stats["failed"] + stats["shed"] == stats["requests"]
        assert stats["reconciles"] is True
        handle.shutdown()

    def test_running_miss_counts_against_the_shed_limit(
        self, service_factory, hanging_chaos
    ):
        """A miss that is running, not only one waiting, holds a slot of
        ``max_queue_depth``, even with a pool thread free."""
        hanging_chaos(1.0)
        handle = service_factory(backend="chaos", workers=2, max_queue_depth=1)
        slow = SimulationRequest("ATAX", "gto", SMALL)
        outcomes = []
        thread = threading.Thread(
            target=lambda: outcomes.append(handle.simulate(slow))
        )
        thread.start()
        handle.wait_running()
        status, headers, _ = handle.simulate(SimulationRequest("SYRK", "gto", SMALL))
        assert status == 503
        assert int(headers["retry-after"]) >= 1
        thread.join(timeout=60)
        assert outcomes and outcomes[0][0] == 200
        assert outcomes[0][2] == direct_bytes(slow)
        stats = handle.stats()
        assert stats["shed"] == 1 and stats["executed"] == 1
        assert stats["reconciles"] is True

    def test_batch_retry_recovers_a_transient_failure(self, service_factory):
        # Attempt 1 of the lone request fails; the service's bounded retry
        # re-runs it and attempt 2 succeeds — the client sees 200.
        configure_chaos(
            FaultPlan(seed=1, rate=1.0, kinds=("fail",), only_attempts=(1,))
        )
        try:
            handle = service_factory(
                backend="chaos",
                retry=RetryPolicy(max_attempts=3, backoff_base=0.0,
                                  jitter=0.0),
            )
            request = SimulationRequest("ATAX", "gto", SMALL)
            status, _, body = handle.simulate(request)
            assert status == 200
            stats = handle.stats()
            assert stats["executed"] == 1 and stats["failed"] == 0
            assert stats["retried"] >= 1
            assert stats["reconciles"] is True
        finally:
            configure_chaos(None)


# ---------------------------------------------------------------------------
# The in-memory tier of verified results
# ---------------------------------------------------------------------------
def serve_in_turn(service: ReproService, requests, probe=lambda: None):
    """Submit ``requests`` one after another, then drain the service.

    Returns ``[(result, source, probe())]``: ``probe`` runs right after
    each request is answered.
    """

    async def scenario():
        await service.start()
        answers = []
        for request in requests:
            result, source, _ = await asyncio.wait_for(
                service.submit(request), timeout=60
            )
            answers.append((result, source, probe()))
        service.begin_shutdown()
        await service.wait_closed()
        return answers

    return asyncio.run(scenario())


class TestHotTier:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(tmp_path / "cache", quarantine=tmp_path / "quarantine")

    @pytest.fixture
    def loads(self, monkeypatch):
        """Paths of every cache entry file opened, in order."""
        opened = []
        real = ResultCache._load

        def counting(path):
            opened.append(path)
            return real(path)

        monkeypatch.setattr(ResultCache, "_load", staticmethod(counting))
        return opened

    def test_repeated_hit_opens_no_file(self, cache, loads):
        request = SimulationRequest("ATAX", "gto", SMALL)
        direct = execute(request).to_dict()
        answers = serve_in_turn(
            ReproService(port=0, workers=1, cache=cache), [request] * 3,
            probe=lambda: len(loads),
        )
        # The miss tries the entry three times (the service's peek, the
        # batch's lookup, the read-back audit); hits read nothing.
        assert [(source, n) for _, source, n in answers] == [
            ("executed", 3), ("cache", 3), ("cache", 3),
        ]
        first = answers[0][0]
        assert all(result is first for result, _, _ in answers)
        assert first.to_dict() == direct

        # A fresh service over the warm cache reads the entry once, then
        # answers from memory.
        loads.clear()
        answers = serve_in_turn(
            ReproService(port=0, workers=1, cache=cache), [request] * 3,
            probe=lambda: len(loads),
        )
        assert [(source, n) for _, source, n in answers] == [
            ("cache", 1), ("cache", 1), ("cache", 1),
        ]
        assert all(result.to_dict() == direct for result, _, _ in answers)

    def test_tampered_entry_is_neither_served_nor_remembered(self, cache):
        request = SimulationRequest("ATAX", "gto", SMALL)
        key = request.cache_key()
        direct = execute(request).to_dict()
        cache.put(key, direct)
        path = cache._path(key)
        envelope = pickle.loads(path.read_bytes())
        envelope["result"]["data"]["fields"]["kernel_name"] = "TAMPERED"
        path.write_bytes(pickle.dumps(envelope))

        service = ReproService(port=0, workers=1, cache=cache)
        answers = serve_in_turn(
            service, [request] * 2,
            probe=lambda: service.hot[key][0].kernel_name,
        )
        # The digest check turns the tampered entry into a miss: the
        # request simulates, and only the executed result is remembered.
        assert [(source, name) for _, source, name in answers] == [
            ("executed", "ATAX"), ("cache", "ATAX"),
        ]
        assert all(result.to_dict() == direct for result, _, _ in answers)

    def test_entry_quarantined_after_a_hit_is_not_served_from_memory(
        self, cache
    ):
        """A remembered result is served only while its disk entry is the
        one it was verified against: once the entry is quarantined (as a
        distributed audit does to a lying worker's entries in a shared
        cache), the next request simulates again."""
        request = SimulationRequest("ATAX", "gto", SMALL)
        key = request.cache_key()
        direct = execute(request).to_dict()
        cache.put(key, direct)
        quarantined = []

        def quarantine_once():
            if not quarantined:
                quarantined.append(
                    cache.quarantine_entry(key, "distributed audit failed")
                )

        answers = serve_in_turn(
            ReproService(port=0, workers=1, cache=cache), [request] * 3,
            probe=quarantine_once,
        )
        assert [source for _, source, _ in answers] == [
            "cache", "executed", "cache",
        ]
        # The re-executed result passed its audit and is remembered anew.
        assert answers[2][0] is answers[1][0]
        assert all(result.to_dict() == direct for result, _, _ in answers)
        assert quarantined[0] is not None and cache.stats.quarantined == 1

    def test_miss_failing_its_audit_is_not_remembered(self, cache, monkeypatch):
        """An entry that reads back unlike the executed result is
        quarantined, and the result does not enter the tier."""
        real_put = cache.put

        def diverging_put(key, result):
            result = copy.deepcopy(result)
            result["data"]["fields"]["kernel_name"] = "TORN"
            real_put(key, result)

        monkeypatch.setattr(cache, "put", diverging_put)
        request = SimulationRequest("ATAX", "gto", SMALL)
        key = request.cache_key()
        service = ReproService(port=0, workers=1, cache=cache)
        answers = serve_in_turn(
            service, [request] * 2, probe=lambda: key in service.hot
        )
        assert [(source, held) for _, source, held in answers] == [
            ("executed", False), ("executed", False),
        ]
        direct = execute(request).to_dict()
        assert all(result.to_dict() == direct for result, _, _ in answers)
        assert service.stats.audit_failures == 2
        assert cache.stats.quarantined == 2

    def test_tier_evicts_its_least_recently_used_result(
        self, cache, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.server.HOT_RESULTS", 2)
        a, b, c = (
            SimulationRequest(name, "gto", SMALL) for name in ("ATAX", "BICG", "MVT")
        )
        service = ReproService(port=0, workers=1, cache=cache)
        answers = serve_in_turn(
            service, [a, b, a, c], probe=lambda: list(service.hot)
        )
        assert [source for _, source, _ in answers] == [
            "executed", "executed", "cache", "executed",
        ]
        # The hit on ``a`` made ``b`` the least recently used result.
        assert answers[-1][2] == [a.cache_key(), c.cache_key()]

    def test_service_without_a_cache_keeps_no_tier(self):
        service = ReproService(port=0, workers=1)
        assert service.hot is None
        request = SimulationRequest("ATAX", "gto", SMALL)
        answers = serve_in_turn(service, [request] * 2)
        assert [source for _, source, _ in answers] == ["executed", "executed"]


# ---------------------------------------------------------------------------
# Unit coverage of the pieces
# ---------------------------------------------------------------------------
class TestServiceDrain:
    """Drain must surface the exceptions of miss tasks, not discard them."""

    @staticmethod
    def drain_after(service: ReproService, request):
        """Submit ``request``, drain, and return ``(outcome, summary)``."""

        async def scenario():
            await service.start()
            (outcome,) = await asyncio.wait_for(
                asyncio.gather(service.submit(request), return_exceptions=True),
                timeout=60,
            )
            service.begin_shutdown()
            await service.wait_closed()
            return outcome

        return asyncio.run(scenario()), service.drain_summary

    def test_drain_surfaces_worker_exceptions(self):
        service = ReproService(port=0, workers=1)

        def exploding_hook(executed, wall_seconds):
            raise RuntimeError("stats hook exploded")

        service.stats.record_batch = exploding_hook
        outcome, summary = self.drain_after(
            service, SimulationRequest("ATAX", "gto", SMALL)
        )
        # The waiter was answered before the hook ran.
        assert outcome[1] == "executed"
        assert summary["drain_errors"] == 1
        assert "stats hook exploded" in summary["errors"][0]
        assert summary["abandoned_batches"] == 0

    def test_clean_drain_reports_zero_errors(self):
        service = ReproService(port=0, workers=1)
        outcome, summary = self.drain_after(
            service, SimulationRequest("ATAX", "gto", SMALL)
        )
        assert outcome[1] == "executed"
        assert summary == {"drain_errors": 0, "abandoned_batches": 0,
                           "errors": []}

    def test_timed_out_batch_is_abandoned_and_counted(self, hanging_chaos):
        hanging_chaos(5.0)
        service = ReproService(
            port=0, workers=1, backend="chaos",
            retry=RetryPolicy(max_attempts=1, timeout_seconds=0.2),
        )
        outcome, summary = self.drain_after(
            service, SimulationRequest("ATAX", "gto", SMALL)
        )
        assert summary["abandoned_batches"] == 1
        assert summary["drain_errors"] == 0
        assert isinstance(outcome, BatchTimeoutError)
        assert "deadline" in str(outcome)
        assert service.stats.timed_out == 1 and service.stats.failed == 1


class TestCoalescer:
    def test_single_flight_lease(self):
        async def scenario():
            coalescer = Coalescer()
            future, leader = coalescer.lease("k1")
            assert leader
            again, follower_leads = coalescer.lease("k1")
            assert again is future and not follower_leads
            assert len(coalescer) == 1 and coalescer.inflight("k1")
            coalescer.resolve("k1", "value")
            assert len(coalescer) == 0
            assert await future == "value"
            # A later lease starts a fresh flight.
            _, leader_again = coalescer.lease("k1")
            assert leader_again

        asyncio.run(scenario())

    def test_failure_propagates_to_all_waiters(self):
        async def scenario():
            coalescer = Coalescer()
            future, _ = coalescer.lease("k1")
            coalescer.fail("k1", RuntimeError("boom"))
            with pytest.raises(RuntimeError, match="boom"):
                await future

        asyncio.run(scenario())


class TestServiceStats:
    def test_reconciliation_invariant(self):
        stats = ServiceStats()
        for _ in range(3):
            stats.record_request()
        stats.record_hit()
        stats.record_coalesced()
        stats.record_batch(("reference", 1000), wall_seconds=0.5)
        assert stats.reconciles()
        snapshot = stats.snapshot(inflight=1)
        assert snapshot["served"] == 3 and snapshot["inflight"] == 1
        assert "queue_depth" not in snapshot
        assert snapshot["per_backend"]["reference"]["executed"] == 1
        assert snapshot["per_backend"]["reference"]["cycles_per_second"] == 2000.0
        # A failed run is one more dispatched miss, and no execution.
        stats.record_batch(None, wall_seconds=0.5)
        assert stats.batches == 2 and stats.executed == 1

    def test_rejects_do_not_unbalance_the_books(self):
        stats = ServiceStats()
        stats.record_rejected()
        assert stats.reconciles()
        entry = stats.ledger_entry()
        assert entry["kind"] == "serve" and entry["rejected"] == 1


class TestRequestDecoding:
    def test_dispatches_both_kinds(self):
        single = SimulationRequest("ATAX", "gto", SMALL)
        assert decode_request(single.to_dict()) == single
        multi = MultiTenantRequest(
            tenants=(TenantSpec("a", "ATAX", "gto", sm_ids=(0,)),),
            run_config=SMALL,
        )
        assert decode_request(multi.to_dict()) == multi

    def test_rejects_unknown_kind_and_non_mapping(self):
        with pytest.raises(ValueError, match="kind"):
            decode_request({"kind": "Nope"})
        with pytest.raises(ValueError, match="object"):
            decode_request([1, 2, 3])


class TestJobLifecycle:
    def test_legal_transitions(self):
        record = JobRecord.for_request(
            SimulationRequest("ATAX", "gto", SMALL),
            job_id="j1",
            cache_key="k",
        )
        assert record.state is JobState.QUEUED
        record.advance(JobState.RUNNING)
        record.advance(JobState.DONE, source="executed", finished_at=1.0)
        assert record.source == "executed" and record.finished_at == 1.0

    def test_cache_hits_skip_running(self):
        record = JobRecord.for_request(
            SimulationRequest("ATAX", "gto", SMALL), job_id="j2", cache_key="k"
        )
        record.advance(JobState.DONE, source="cache")
        assert record.state is JobState.DONE

    def test_illegal_transitions_rejected(self):
        record = JobRecord.for_request(
            SimulationRequest("ATAX", "gto", SMALL), job_id="j3", cache_key="k"
        )
        record.advance(JobState.FAILED, error="boom")
        with pytest.raises(ValueError, match="illegal job transition"):
            record.advance(JobState.RUNNING)
        with pytest.raises(ValueError, match="illegal job transition"):
            record.advance(JobState.DONE)
