"""Tests for the distributed sweep layer (``repro.harness.distributed``).

The end-to-end classes drive real ``WorkerServer`` processes-worth of HTTP
(an event loop per worker on a background thread, the blocking
``WorkerClient`` on this one) and pin the PR's acceptance contract: a
sharded sweep returns results bit-identical to the single-machine sweep —
asserted against the golden-matrix fixture itself — survives a dead worker
by re-dispatching its chunks onto healthy ones, and resumes a partial
distributed manifest without re-running finished jobs.
"""

from __future__ import annotations

import asyncio
import http.server
import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    BATCH_SCHEMA,
    MultiTenantRequest,
    RunConfig,
    SimulationRequest,
    TenantSpec,
    decode_request_batch,
    encode_request_batch,
    execute,
    result_digest,
)
from repro.harness.cache import ResultCache
from repro.harness.distributed import (
    DEFAULT_WORKER_PORT,
    OUTCOME_SCHEMA,
    WorkerClient,
    WorkerError,
    WorkerRef,
    WorkerSchemaError,
    WorkerServer,
    load_worker_roster,
    parse_workers_at,
    run_distributed,
)
from repro.harness.faults import FaultPlan, configure_chaos, corrupt_result
from repro.harness.ledger import read_ledger_report
from repro.harness.manifest import load_manifest
from repro.harness.parallel import (
    JobFailure,
    RetryPolicy,
    ShardPlan,
    SweepError,
    run_jobs,
)
from repro.serve.http import canonical_json
from repro.version import __version__

SMALL = RunConfig(scale=0.02, seed=1)

GOLDEN = json.loads(
    (Path(__file__).parent / "goldens" / "golden_stats.json").read_text()
)


def small_jobs(n: int = 4) -> list[SimulationRequest]:
    matrix = [("ATAX", "gto"), ("ATAX", "ccws"), ("BICG", "gto"), ("MVT", "lrr")]
    return [
        SimulationRequest(bench, sched, SMALL) for bench, sched in matrix[:n]
    ]


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------
class TestShardPlan:
    def test_partition_is_deterministic_and_complete(self):
        keys = [f"{i:032x}" for i in range(17)]
        plan = ShardPlan.build(keys, 4)
        again = ShardPlan.build(list(keys), 4)
        assert plan == again
        covered = sorted(p for shard in plan.shards for p in shard)
        assert covered == list(range(len(keys)))

    def test_assignment_follows_key_not_position(self):
        """Membership is a pure function of the key: reordering the job
        list moves positions but never a key's shard."""
        keys = [f"{i * 7919:032x}" for i in range(12)]
        plan = ShardPlan.build(keys, 3)
        shard_of = {}
        for shard_index, positions in enumerate(plan.shards):
            for p in positions:
                shard_of[keys[p]] = shard_index
        shuffled = list(reversed(keys))
        replan = ShardPlan.build(shuffled, 3)
        for shard_index, positions in enumerate(replan.shards):
            for p in positions:
                assert shard_of[shuffled[p]] == shard_index

    def test_keyless_jobs_fall_back_to_position(self):
        plan = ShardPlan.build([None, None, None], 2)
        assert sorted(p for s in plan.shards for p in s) == [0, 1, 2]

    def test_chunks_bound_size_and_preserve_shards(self):
        keys = [f"{i:032x}" for i in range(10)]
        plan = ShardPlan.build(keys, 2)
        chunks = plan.chunks(3)
        assert all(len(positions) <= 3 for _, positions in chunks)
        rebuilt: dict[int, list[int]] = {}
        for shard_index, positions in chunks:
            rebuilt.setdefault(shard_index, []).extend(positions)
        assert {
            shard_index: tuple(positions)
            for shard_index, positions in rebuilt.items()
        } == {i: s for i, s in enumerate(plan.shards) if s}

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardPlan.build(["a" * 32], 1).chunks(0)


# ---------------------------------------------------------------------------
# Rosters
# ---------------------------------------------------------------------------
class TestRosters:
    def test_parse_workers_at(self):
        refs = parse_workers_at("localhost:9001, http://10.0.0.2:9002/")
        assert refs == (
            WorkerRef("localhost", 9001), WorkerRef("10.0.0.2", 9002)
        )
        assert refs[0].address == "http://localhost:9001"

    @pytest.mark.parametrize("bad", ["nohost", "h:0", "h:-2", "h:abc",
                                     "h:70000", "", ",,"])
    def test_parse_workers_at_rejects(self, bad):
        with pytest.raises(ValueError, match="--workers-at"):
            parse_workers_at(bad)

    def test_roster_file_dict_and_list_forms(self, tmp_path):
        path = tmp_path / "shards.json"
        path.write_text('{"workers": ["a:1", "b:2"]}')
        assert load_worker_roster(path) == (WorkerRef("a", 1), WorkerRef("b", 2))
        path.write_text('["c:3"]')
        assert load_worker_roster(path) == (WorkerRef("c", 3),)

    def test_roster_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "shards.json"
        with pytest.raises(ValueError, match="shards.json"):
            load_worker_roster(path)  # missing
        path.write_text("not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_worker_roster(path)
        path.write_text('{"workers": [42]}')
        with pytest.raises(ValueError, match="host:port"):
            load_worker_roster(path)
        path.write_text('{"workers": ["a:bad"]}')
        with pytest.raises(ValueError, match="positive integer"):
            load_worker_roster(path)


# ---------------------------------------------------------------------------
# Wire forms
# ---------------------------------------------------------------------------
class TestWireForms:
    def test_request_batch_round_trip(self):
        jobs = [
            SimulationRequest("ATAX", "gto", SMALL),
            MultiTenantRequest(
                tenants=(
                    TenantSpec("a", "ATAX", "gto"),
                    TenantSpec("b", "BICG", "ccws"),
                ),
                run_config=SMALL,
            ),
        ]
        decoded = decode_request_batch(
            json.loads(canonical_json(encode_request_batch(jobs)))
        )
        assert decoded == jobs

    def test_request_batch_rejects_drift(self):
        good = encode_request_batch([SimulationRequest("ATAX", "gto", SMALL)])
        with pytest.raises(ValueError):
            decode_request_batch({**good, "schema": 99})
        with pytest.raises(ValueError):
            decode_request_batch({**good, "kind": "Nope"})
        with pytest.raises(ValueError):
            decode_request_batch({**good, "requests": "nope"})

    def test_retry_policy_round_trip_and_drift(self):
        policy = RetryPolicy(max_attempts=5, timeout_seconds=2.0, seed=9)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ValueError):
            RetryPolicy.from_dict({**policy.to_dict(), "schema": 99})
        payload = policy.to_dict()
        payload["data"] = {**payload["data"], "surprise": 1}
        with pytest.raises(ValueError):
            RetryPolicy.from_dict(payload)


# ---------------------------------------------------------------------------
# Live workers (in-process event loops, real sockets)
# ---------------------------------------------------------------------------
class WorkerHandle:
    """A live ``WorkerServer`` on a background event-loop thread."""

    def __init__(self, **kwargs):
        kwargs.setdefault("host", "127.0.0.1")
        kwargs.setdefault("port", 0)
        kwargs.setdefault("cache", None)
        self.server = WorkerServer(**kwargs)
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(timeout=15), "worker failed to start"

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_until_complete(self.server.wait_closed())
        self._loop.close()

    @property
    def ref(self) -> WorkerRef:
        return WorkerRef("127.0.0.1", self.server.port)

    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.begin_shutdown)
            self._thread.join(timeout=15)


class DudWorker:
    """A roster entry that accepts connections and slams them shut.

    Deterministically simulates a crashed / lost worker without timing
    races: every dispatch to it fails immediately with a connection error.
    """

    def __init__(self):
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            conn.close()

    @property
    def ref(self) -> WorkerRef:
        return WorkerRef("127.0.0.1", self.port)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class DriftWorker:
    """An endpoint whose ``/healthz`` speaks for an incompatible worker.

    Deterministically simulates a roster entry running a different repro
    version (or not being a worker at all) — the coordinator must refuse it
    during the pre-dispatch probe with a one-line explanation.
    """

    def __init__(self, **overrides):
        payload = canonical_json({
            "status": "ok",
            "kind": "worker",
            "busy": False,
            "workers": 1,
            "version": "0.0.0",
            "batch_schema": 99,
            "outcome_schema": OUTCOME_SCHEMA,
            **overrides,
        })

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()

    @property
    def ref(self) -> WorkerRef:
        return WorkerRef("127.0.0.1", self.port)

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture()
def worker():
    handle = WorkerHandle()
    yield handle
    handle.close()


@pytest.fixture()
def pair():
    handles = [WorkerHandle(), WorkerHandle()]
    yield handles
    for handle in handles:
        handle.close()


class TestWorkerHttp:
    def test_healthz(self, worker):
        answer = WorkerClient(worker.ref).healthz()
        assert answer["status"] == "ok"
        assert answer["kind"] == "worker"

    def test_healthz_advertises_wire_schemas(self, worker):
        """The coordinator's drift check reads these three fields."""
        answer = WorkerClient(worker.ref).healthz()
        assert answer["batch_schema"] == BATCH_SCHEMA
        assert answer["outcome_schema"] == OUTCOME_SCHEMA
        assert answer["version"] == __version__

    def test_done_rows_carry_their_result_digest(self, worker):
        answer = WorkerClient(worker.ref).run_batch(small_jobs(2))
        for row in answer["outcomes"]:
            assert row["status"] == "done"
            assert row["digest"] == result_digest(row["result"])

    def test_unknown_path_and_wrong_method(self, worker):
        client = WorkerClient(worker.ref)
        with pytest.raises(WorkerError, match="404"):
            client._request("GET", "/nope")
        with pytest.raises(WorkerError, match="405"):
            client._request("GET", "/batch")

    def test_bad_batch_payload_is_400(self, worker):
        client = WorkerClient(worker.ref)
        with pytest.raises(WorkerError, match="400"):
            client._request("POST", "/batch", b"{not json")
        with pytest.raises(WorkerError, match="400"):
            client._request("POST", "/batch", canonical_json({"kind": "Nope"}))

    def test_batch_executes_and_reports(self, worker):
        jobs = small_jobs(2)
        answer = WorkerClient(worker.ref).run_batch(jobs)
        assert [row["status"] for row in answer["outcomes"]] == ["done", "done"]
        assert answer["stats"]["executed"] == 2
        assert answer["ledger_row"]["jobs"] == 2
        assert "keys_digest" in answer["ledger_row"]
        for job, row in zip(jobs, answer["outcomes"]):
            direct = run_jobs([job], cache=None).results[0]
            assert canonical_json(row["result"]) == canonical_json(direct.to_dict())

    def test_unknown_benchmark_is_failure_row_not_500(self, worker):
        answer = WorkerClient(worker.ref).run_batch(
            [SimulationRequest("NOPE", "gto", SMALL)]
        )
        (row,) = answer["outcomes"]
        assert row["status"] == "failed" and row["result"] is None
        assert "NOPE" in row["error"]


class TestRunDistributed:
    def test_matches_local_run_and_streams_manifest(self, pair, tmp_path):
        jobs = small_jobs()
        manifest = tmp_path / "manifest.jsonl"
        outcome = run_distributed(
            jobs, [h.ref for h in pair], cache=None,
            manifest=manifest, chunk_size=1,
        )
        local = run_jobs(jobs, cache=None)
        for (_, got), (_, want) in zip(outcome, local):
            assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())
        entries = load_manifest(manifest)
        assert len(entries) == len(jobs)
        assert all(e.status == "done" for e in entries.values())
        # Both workers actually participated (keys spread over the roster).
        assert sum(h.server.batches for h in pair) >= 2

    def test_resume_serves_done_jobs_from_cache(self, pair, tmp_path):
        jobs = small_jobs()
        cache = ResultCache(tmp_path / "cache")
        manifest = tmp_path / "manifest.jsonl"
        first = run_distributed(
            jobs, [h.ref for h in pair], cache=cache, manifest=manifest
        )
        assert first.stats.executed == len(jobs)
        # A second coordinator — any machine with the same cache dir —
        # resumes without dispatching a single job.
        again = run_distributed(
            jobs, [h.ref for h in pair], cache=cache, manifest=manifest
        )
        assert again.stats.executed == 0
        assert again.stats.cache_hits == len(jobs)
        for (_, got), (_, want) in zip(again, first):
            assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())

    def test_partial_local_sweep_resumes_distributed(self, pair, tmp_path):
        """A manifest begun single-machine hands over to the cluster."""
        jobs = small_jobs()
        cache = ResultCache(tmp_path / "cache")
        manifest = tmp_path / "manifest.jsonl"
        run_jobs(jobs[:2], cache=cache, manifest=manifest, workers=1)
        outcome = run_distributed(
            jobs, [h.ref for h in pair], cache=cache, manifest=manifest
        )
        assert outcome.stats.cache_hits == 2
        assert outcome.stats.executed == 2
        assert len(load_manifest(manifest)) == len(jobs)

    def test_lost_worker_redispatches_onto_healthy_one(self, worker, tmp_path):
        dud = DudWorker()
        try:
            jobs = small_jobs()
            manifest = tmp_path / "manifest.jsonl"
            outcome = run_distributed(
                jobs, [dud.ref, worker.ref], cache=None,
                manifest=manifest, chunk_size=1,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.001),
            )
            assert outcome.ok
            assert outcome.stats.retried >= 1
            local = run_jobs(jobs, cache=None)
            for (_, got), (_, want) in zip(outcome, local):
                assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())
            entries = load_manifest(manifest)
            assert all(e.status == "done" for e in entries.values())
            # The re-dispatch is visible in the manifest: jobs sharded to
            # the dead worker settled on a later attempt.
            assert max(e.attempts for e in entries.values()) >= 2
        finally:
            dud.close()

    def test_all_workers_dead_skip_mode(self, tmp_path):
        dud = DudWorker()
        try:
            jobs = small_jobs(2)
            outcome = run_distributed(
                jobs, [dud.ref], cache=None, on_error="skip",
                retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
            )
            assert not outcome.ok
            assert all(isinstance(r, JobFailure) for r in outcome.results)
            assert outcome.stats.failed == len(jobs)
        finally:
            dud.close()

    def test_all_workers_dead_raise_mode(self):
        dud = DudWorker()
        try:
            with pytest.raises(SweepError):
                run_distributed(
                    small_jobs(1), [dud.ref], cache=None,
                    retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
                )
        finally:
            dud.close()

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            run_distributed(small_jobs(1), [], cache=None)

    def test_audit_rate_validated(self):
        with pytest.raises(ValueError, match="audit_rate"):
            run_distributed(
                small_jobs(1), [WorkerRef("127.0.0.1", 1)], cache=None,
                audit_rate=1.5,
            )

    def test_worker_restarted_mid_sweep_rejoins_via_breaker_probe(self):
        """A roster entry that is down when the sweep starts is not written
        off: its circuit breaker keeps probing ``/healthz`` with seeded
        backoff, and the worker joins the fleet the moment it comes up.
        (The old permanent ``dead`` set failed this sweep outright.)"""
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        box: dict[str, WorkerHandle] = {}

        def bring_up():
            time.sleep(0.4)
            box["handle"] = WorkerHandle(port=port)

        starter = threading.Thread(target=bring_up, daemon=True)
        starter.start()
        try:
            jobs = small_jobs(2)
            outcome = run_distributed(
                jobs, [WorkerRef("127.0.0.1", port)], cache=None,
                retry=RetryPolicy(max_attempts=20, backoff_base=0.05),
            )
            assert outcome.ok
            assert outcome.stats.executed == len(jobs)
            local = run_jobs(jobs, cache=None)
            for (_, got), (_, want) in zip(outcome, local):
                assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())
        finally:
            starter.join()
            if "handle" in box:
                box["handle"].close()


class TestSchemaDrift:
    def test_drifted_worker_is_refused_with_a_clear_error(self):
        drift = DriftWorker(batch_schema=99)
        try:
            with pytest.raises(WorkerSchemaError, match="batch schema 99"):
                run_distributed(small_jobs(1), [drift.ref], cache=None)
        finally:
            drift.close()

    def test_non_worker_endpoint_is_refused(self):
        drift = DriftWorker(kind="serve")
        try:
            with pytest.raises(WorkerSchemaError, match="not a repro worker"):
                run_distributed(small_jobs(1), [drift.ref], cache=None)
        finally:
            drift.close()

    def test_schema_error_is_a_usage_error(self):
        # The CLI maps ValueError to a one-line `error:` + exit 2.
        assert issubclass(WorkerSchemaError, ValueError)


class TestTransportIntegrity:
    def test_payload_corrupted_in_transit_is_rejected_not_merged(
        self, worker, monkeypatch
    ):
        """A done row whose result no longer matches its shipped digest —
        bit rot on the wire, a proxy mangling the body — must never merge
        into the sweep."""
        real = WorkerClient.run_batch

        def tampering(self, requests, **kwargs):
            answer = real(self, requests, **kwargs)
            row = answer["outcomes"][0]
            if row["status"] == "done":
                row["result"] = {**row["result"], "tampered": 1}
            return answer

        monkeypatch.setattr(WorkerClient, "run_batch", tampering)
        jobs = small_jobs(2)
        outcome = run_distributed(
            jobs, [worker.ref], cache=None, on_error="skip", chunk_size=2,
        )
        assert outcome.stats.corrupt == 1
        failures = [r for r in outcome.results if isinstance(r, JobFailure)]
        assert len(failures) == 1
        assert failures[0].error_type == "IntegrityError"
        assert "digest mismatch" in failures[0].error


class TestAudits:
    """Seeded local re-execution of worker-returned results."""

    def test_liar_worker_is_caught_and_golden_matrix_stays_bit_identical(
        self, monkeypatch, tmp_path
    ):
        """The acceptance gate: one roster worker deliberately returns
        digest-consistent but *wrong* results (its lies carry matching
        digests, so only re-execution can expose them).  At audit rate 0.25
        the sweep still completes bit-identical to the golden fixtures,
        with the mismatch recorded in the manifest and the ledger."""
        meta = GOLDEN["_meta"]
        jobs, want = [], []
        for key, envelope in sorted(GOLDEN["entries"].items()):
            bench, sched, backend = key.split("/")
            jobs.append(SimulationRequest(
                bench, sched,
                RunConfig(scale=meta["scale"], seed=meta["seed"]),
                backend=backend,
            ))
            want.append(canonical_json(envelope))

        # The liar is the roster worker created with ``workers=2`` — its
        # batches run through this wrapper, which corrupts every result
        # *before* the worker computes the shipped digest (so transport
        # checks pass and only an audit can catch it).
        real_run_jobs = run_jobs

        def lying_run_jobs(batch, **kwargs):
            outcome = real_run_jobs(batch, **kwargs)
            if kwargs.get("workers") == 2:
                for i, result in enumerate(outcome.results):
                    if result is not None and not isinstance(result, JobFailure):
                        outcome.results[i] = corrupt_result(
                            result, seed=1234, fault_key=f"liar:{i}"
                        )
            return outcome

        monkeypatch.setattr("repro.harness.distributed.run_jobs", lying_run_jobs)
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(ledger))
        honest, liar = WorkerHandle(), WorkerHandle(workers=2)
        manifest = tmp_path / "manifest.jsonl"
        try:
            outcome = run_distributed(
                jobs, [honest.ref, liar.ref], cache=None,
                manifest=manifest, audit_rate=0.25,
                retry=RetryPolicy(max_attempts=10, backoff_base=0.01),
            )
            assert liar.server.batches >= 1  # the liar really participated
        finally:
            honest.close()
            liar.close()
        assert outcome.ok
        got = [canonical_json(result.to_dict()) for _, result in outcome]
        assert got == want
        assert outcome.stats.audited >= 1
        assert outcome.stats.audit_failures >= 1
        assert outcome.stats.retried >= 1  # the discarded chunk re-dispatched
        # The manifest shows the audit-triggered re-dispatch: a failed row
        # naming the mismatch, and a final done row for every job.
        raw_rows = [
            json.loads(line)
            for line in manifest.read_text().splitlines() if line.strip()
        ]
        assert any(
            "audit mismatch" in (row.get("error") or "") for row in raw_rows
        )
        entries = load_manifest(manifest)
        assert len(entries) == len(jobs)
        assert all(e.status == "done" for e in entries.values())
        # And the ledger carries the forensic audit row.
        rows, skipped = read_ledger_report(ledger)
        assert skipped == 0
        audit_rows = [r for r in rows if r.get("kind") == "audit"]
        assert audit_rows and audit_rows[0]["verdict"] == "mismatch"

    def test_audit_failure_rolls_back_everything_the_worker_contributed(
        self, monkeypatch, tmp_path
    ):
        """A worker caught lying once cannot leave earlier answers behind:
        chunks it already merged are un-merged, their cache entries
        quarantined, and the jobs re-run."""
        calls = {"n": 0}
        real_run_jobs = run_jobs

        def lies_on_second_batch(batch, **kwargs):
            outcome = real_run_jobs(batch, **kwargs)
            calls["n"] += 1
            if calls["n"] == 2:
                for i, result in enumerate(outcome.results):
                    if result is not None and not isinstance(result, JobFailure):
                        outcome.results[i] = corrupt_result(
                            result, seed=99, fault_key=f"liar:{i}"
                        )
            return outcome

        monkeypatch.setattr(
            "repro.harness.distributed.run_jobs", lies_on_second_batch
        )
        jobs = small_jobs(4)
        cache = ResultCache(
            tmp_path / "cache", quarantine=tmp_path / "quarantine"
        )
        handle = WorkerHandle()
        try:
            outcome = run_distributed(
                jobs, [handle.ref], cache=cache, chunk_size=1,
                audit_rate=1.0,
                retry=RetryPolicy(max_attempts=10, backoff_base=0.01),
            )
        finally:
            handle.close()
        assert outcome.ok
        assert outcome.stats.audit_failures == 1
        # The first (honest, already merged) batch was quarantined on the
        # second batch's mismatch, then re-executed and re-cached.
        assert cache.stats.quarantined >= 1
        assert list((tmp_path / "quarantine").glob("*.quarantined"))
        local = run_jobs(jobs, cache=None)
        for (_, got), (_, want) in zip(outcome, local):
            assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())


class TestGoldenMatrixSharded:
    def test_sharded_sweep_is_bit_identical_to_single_machine(self, pair):
        """The acceptance gate: the full 26-entry golden matrix, sharded
        across two workers, reproduces the single-machine fixture results
        bit for bit — whatever the shard boundaries did to execution
        order or placement."""
        meta = GOLDEN["_meta"]
        jobs, want = [], []
        for key, envelope in sorted(GOLDEN["entries"].items()):
            bench, sched, backend = key.split("/")
            jobs.append(SimulationRequest(
                bench, sched,
                RunConfig(scale=meta["scale"], seed=meta["seed"]),
                backend=backend,
            ))
            want.append(canonical_json(envelope))
        outcome = run_distributed(jobs, [h.ref for h in pair], cache=None)
        assert outcome.ok
        got = [canonical_json(result.to_dict()) for _, result in outcome]
        assert got == want
        assert outcome.stats.executed == len(jobs) == 26


class TestSettlementParity:
    """Every executor — in-process, process pool, remote worker — plans and
    settles a sweep through the same books, so the same failing sweep leaves
    the same result slots, failures and manifest rows whichever one ran it."""

    JOBS = [
        SimulationRequest("ATAX", "gto", SMALL),
        # Valid names (the key plan accepts it) but a launch geometry that
        # fails at materialisation time, mid-sweep.
        SimulationRequest("ATAX", "gto", RunConfig(scale=0.02, seed=1, num_ctas=0)),
        SimulationRequest("BICG", "gto", SMALL),
    ]

    def executors(self, worker, jobs=JOBS):
        return {
            "in-process": lambda **kw: run_jobs(jobs, workers=1, cache=None, **kw),
            "pool": lambda **kw: run_jobs(jobs, workers=2, cache=None, **kw),
            "remote": lambda **kw: run_distributed(
                jobs, [worker.ref], cache=None, **kw
            ),
        }

    def test_skip_mode_settles_identically(self, worker, tmp_path):
        settled, rows = {}, {}
        for name, run in self.executors(worker).items():
            manifest = tmp_path / f"{name}.manifest"
            outcome = run(on_error="skip", manifest=manifest)
            settled[name] = [
                (r.error, r.error_type, r.attempts, r.timed_out)
                if isinstance(r, JobFailure) else canonical_json(r.to_dict())
                for r in outcome.results
            ]
            rows[name] = sorted(
                (row["key"], row["status"], row["attempts"], row["backend"])
                for row in map(json.loads, manifest.read_text().splitlines())
            )
        want = settled["in-process"]
        assert want[1] == ("launch geometry must be positive", "ValueError", 1, False)
        assert settled["pool"] == want and settled["remote"] == want
        assert rows["pool"] == rows["in-process"] == rows["remote"]
        assert sorted(status for _, status, _, _ in rows["in-process"]) == [
            "done", "done", "failed",
        ]
        backend = self.JOBS[0].resolved_backend()
        assert all(row[2] == 1 and row[3] == backend for row in rows["in-process"])

    def test_repeated_jobs_share_one_simulation(self, worker, tmp_path):
        """A job repeated within a sweep runs once on every executor: its
        slots share one result (or failure) and one manifest row."""
        good, bad = self.JOBS[0], self.JOBS[1]
        jobs = [good, bad, good, bad]
        want = canonical_json(execute(good).to_dict())
        for name, run in self.executors(worker, jobs).items():
            manifest = tmp_path / f"{name}.manifest"
            outcome = run(on_error="skip", manifest=manifest)
            assert outcome.stats.executed == 2, name
            assert outcome.stats.failed == 2, name
            assert outcome.results[0] is outcome.results[2], name
            assert canonical_json(outcome.results[0].to_dict()) == want, name
            failures = outcome.failures()
            assert [f.job for f in failures] == [bad, bad], name
            assert outcome.attempts == [1, 1, 1, 1], name
            statuses = sorted(
                row["status"]
                for row in map(json.loads, manifest.read_text().splitlines())
            )
            assert statuses == ["done", "failed"], name

    def test_retry_mode_counts_the_same_attempts(self, worker, tmp_path):
        """A job that succeeds on its second attempt settles as ``done``
        after 2 attempts on every executor: a remote worker reports the
        retries it ran itself."""
        configure_chaos(FaultPlan(rate=1.0, kinds=("fail",), only_attempts=(1,)))
        try:
            rows = {}
            for name, run in self.executors(worker).items():
                manifest = tmp_path / f"{name}.manifest"
                run(
                    backend="chaos", on_error="retry", manifest=manifest,
                    retry=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
                )
                rows[name] = sorted(
                    (row["key"], row["status"], row["attempts"], row["backend"])
                    for row in map(json.loads, manifest.read_text().splitlines())
                )
        finally:
            configure_chaos(None)
        assert rows["pool"] == rows["in-process"] == rows["remote"]
        settled = sorted(row[1:3] for row in rows["remote"])
        assert settled == [("done", 2), ("done", 2), ("failed", 3)]

    def test_raise_mode_names_the_same_job_and_cause(self, worker):
        messages = set()
        for run in self.executors(worker).values():
            with pytest.raises(SweepError) as excinfo:
                run()
            assert excinfo.value.job == self.JOBS[1]
            # The pool appends how much of the sweep survived after a ";".
            messages.add(str(excinfo.value).split(";")[0])
        assert len(messages) == 1
        assert "ValueError: launch geometry must be positive" in messages.pop()
