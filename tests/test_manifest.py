"""Tests for sweep checkpoint manifests (repro.harness.manifest)."""

import json

import pytest

from repro.api import SimulationRequest
from repro.harness.cache import ResultCache
from repro.harness.faults import FaultPlan, configure_chaos
from repro.harness.manifest import (
    ManifestEntry,
    append_outcome,
    load_manifest,
    merge_manifests,
    summarize_manifest,
)
from repro.harness.parallel import run_jobs
from repro.harness.runner import RunConfig

SMALL = RunConfig(scale=0.02, seed=1)


def entry(key, status, **kwargs):
    return ManifestEntry(key=key, status=status, **kwargs)


class TestManifestFile:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "sweep.manifest"
        append_outcome(path, entry("k1", "done", attempts=2, benchmark="ATAX",
                                   scheduler="gto", backend="reference"))
        append_outcome(path, entry("k2", "failed", error="boom"))
        entries = load_manifest(path)
        assert set(entries) == {"k1", "k2"}
        assert entries["k1"].status == "done" and entries["k1"].attempts == 2
        assert entries["k2"].error == "boom"

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError, match="bad manifest status"):
            entry("k", "exploded")

    def test_done_wins_over_later_failure(self, tmp_path):
        # Merged partial runs can interleave lines arbitrarily; a completed
        # result (durable in the cache) must never be forced to re-run by a
        # stray failure line.
        path = tmp_path / "m.manifest"
        append_outcome(path, entry("k", "failed"))
        append_outcome(path, entry("k", "done"))
        append_outcome(path, entry("k", "timeout"))
        assert load_manifest(path)["k"].status == "done"

    def test_latest_wins_among_non_done(self, tmp_path):
        path = tmp_path / "m.manifest"
        append_outcome(path, entry("k", "failed"))
        append_outcome(path, entry("k", "timeout"))
        assert load_manifest(path)["k"].status == "timeout"

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "m.manifest"
        append_outcome(path, entry("k1", "done"))
        with open(path, "a") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps({"schema": 999, "key": "k2", "status": "done"}) + "\n")
            fh.write(json.dumps({"schema": 1, "key": "k3", "status": "nope"}) + "\n")
        entries = load_manifest(path)
        assert set(entries) == {"k1"}

    def test_missing_file_is_empty(self, tmp_path):
        assert load_manifest(tmp_path / "nope.manifest") == {}

    def test_merge_manifests_is_a_keyed_union(self, tmp_path):
        a, b = tmp_path / "a.manifest", tmp_path / "b.manifest"
        append_outcome(a, entry("k1", "done"))
        append_outcome(a, entry("k2", "failed"))
        append_outcome(b, entry("k2", "done"))   # done wins across files
        append_outcome(b, entry("k3", "timeout"))
        merged = merge_manifests([a, b])
        assert {k: e.status for k, e in merged.items()} == {
            "k1": "done", "k2": "done", "k3": "timeout",
        }

    def test_summarize_counts(self, tmp_path):
        path = tmp_path / "m.manifest"
        append_outcome(path, entry("k1", "done", attempts=2))
        append_outcome(path, entry("k2", "failed", attempts=3))
        summary = summarize_manifest(load_manifest(path))
        assert summary["done"] == 1 and summary["failed"] == 1
        assert summary["keys"] == 2 and summary["attempts"] == 5


class TestConcurrentAppends:
    def test_two_process_appends_all_land(self, tmp_path):
        """Several coordinator processes (a local sweep and a distributed
        one, say) may append to one manifest concurrently.  Single-line
        O_APPEND writes keep every record intact: nothing interleaves,
        nothing is lost."""
        import multiprocessing

        path = tmp_path / "m.manifest"
        n = 50

        def writer(prefix: str) -> None:
            for i in range(n):
                append_outcome(path, ManifestEntry(
                    key=f"{prefix}{i}", status="done",
                    benchmark="ATAX", scheduler="gto",
                ))

        ctx = multiprocessing.get_context()
        procs = [ctx.Process(target=writer, args=(p,)) for p in ("a", "b")]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        entries = load_manifest(path)
        assert set(entries) == {f"{p}{i}" for p in ("a", "b") for i in range(n)}
        assert all(e.status == "done" for e in entries.values())

    def test_torn_tail_from_killed_writer_is_skipped(self, tmp_path):
        """A writer killed mid-line (SIGKILLed worker, full disk) leaves a
        torn tail; loading skips it and done-wins still applies to every
        complete line."""
        path = tmp_path / "m.manifest"
        append_outcome(path, entry("k1", "failed"))
        append_outcome(path, entry("k1", "done"))
        append_outcome(path, entry("k2", "done"))
        with open(path, "a") as fh:
            fh.write('{"schema": 1, "key": "k3", "sta')  # no newline: torn
        entries = load_manifest(path)
        assert set(entries) == {"k1", "k2"}
        assert entries["k1"].status == "done"


class TestSweepResume:
    """Acceptance: resuming executes only the not-yet-done jobs."""

    def _jobs(self, benchmarks=("SYRK", "ATAX"), backend=None):
        return [
            SimulationRequest(b, s, SMALL, backend=backend)
            for b in benchmarks
            for s in ("gto", "ciao-c")
        ]

    def test_resume_skips_done_work(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        manifest = tmp_path / "sweep.manifest"
        first = run_jobs(self._jobs(), workers=1, cache=cache,
                         manifest=manifest)
        assert first.stats.executed == 4
        assert summarize_manifest(load_manifest(manifest))["done"] == 4
        # Same sweep again: everything is done; nothing re-executes.
        again = run_jobs(self._jobs(), workers=1, cache=cache,
                         manifest=manifest)
        assert again.stats.executed == 0 and again.stats.cache_hits == 4
        assert again.results == first.results

    def test_resume_runs_only_the_missing_jobs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        manifest = tmp_path / "sweep.manifest"
        run_jobs(self._jobs(benchmarks=("SYRK",)), workers=1, cache=cache,
                 manifest=manifest)
        # A superset sweep over the same manifest executes only the 2 new
        # jobs; the 2 done ones come straight from the cache.
        superset = run_jobs(self._jobs(benchmarks=("SYRK", "ATAX")),
                            workers=1, cache=cache, manifest=manifest)
        assert superset.stats.executed == 2
        assert superset.stats.cache_hits == 2
        assert summarize_manifest(load_manifest(manifest))["done"] == 4

    def test_done_without_cached_result_is_re_run(self, tmp_path):
        # The manifest stores statuses, not results: a done key whose cache
        # entry is gone (cache-less resume) must re-run, not crash.
        manifest = tmp_path / "sweep.manifest"
        jobs = self._jobs(benchmarks=("SYRK",))
        run_jobs(jobs, workers=1, cache=None, manifest=manifest)
        resumed = run_jobs(jobs, workers=1, cache=None, manifest=manifest)
        assert resumed.stats.executed == 2  # nothing to serve results from

    def test_failed_entries_are_retried_on_resume(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        manifest = tmp_path / "sweep.manifest"
        jobs = self._jobs(benchmarks=("SYRK",), backend="chaos")
        configure_chaos(FaultPlan(seed=1, rate=1.0, kinds=("fail",)))
        try:
            broken = run_jobs(jobs, workers=1, cache=cache,
                              on_error="skip", manifest=manifest)
            assert broken.stats.failed == 2
            assert summarize_manifest(load_manifest(manifest))["failed"] == 2
            # Faults cleared (rate 0): the resume re-runs exactly the two
            # failed jobs and flips their manifest lines to done.
            configure_chaos(FaultPlan(seed=1, rate=0.0))
            fixed = run_jobs(jobs, workers=1, cache=cache,
                             on_error="skip", manifest=manifest)
            assert fixed.ok and fixed.stats.executed == 2
            summary = summarize_manifest(load_manifest(manifest))
            assert summary["done"] == 2 and summary["failed"] == 0
        finally:
            configure_chaos(None)


class TestSweepResumeCli:
    def test_cli_resume_accounting(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        # conftest.py disables the result cache for hermeticity; resume
        # accounting needs it, pointed at a tmp dir.
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "ledger.jsonl"))
        manifest = str(tmp_path / "sweep.manifest")
        argv = ["sweep", "-b", "SYRK", "ATAX", "-s", "gto",
                "--scale", "0.02", "--json"]
        assert main(argv + ["--manifest", manifest]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["executed"] == 2
        assert main(argv + ["--resume", manifest]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["executed"] == 0 and second["cache_hits"] == 2
        assert second["raw_ipc"] == first["raw_ipc"]
