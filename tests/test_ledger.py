"""Tests for the bench ledger (repro.harness.ledger)."""

import json

from repro.api import RunConfig, SimulationRequest
from repro.harness.ledger import (
    keys_digest,
    ledger_enabled,
    ledger_path,
    merge_ledger_entries,
    read_ledger,
    record_sweep,
    summarize_ledger,
    sweep_entry,
)
from repro.harness.parallel import SweepStats, run_jobs

SMALL = RunConfig(scale=0.05, seed=1)


class TestRecording:
    def test_record_and_read(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        stats = SweepStats(jobs=4, cache_hits=1, executed=3, workers=2,
                           wall_seconds=1.5, backend="reference")
        assert record_sweep(stats, path=path) == path
        entries = read_ledger(path)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["jobs"] == 4
        assert entry["cache_hits"] == 1
        assert entry["executed"] == 3
        assert entry["workers"] == 2
        assert entry["backend"] == "reference"
        assert entry["ts"] > 0

    def test_appends(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for _ in range(3):
            record_sweep(SweepStats(jobs=1, executed=1), path=path)
        assert len(read_ledger(path)) == 3

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        record_sweep(SweepStats(jobs=1, executed=1), path=path)
        with open(path, "a") as fh:
            fh.write("not json\n")
        record_sweep(SweepStats(jobs=2, executed=2), path=path)
        entries = read_ledger(path)
        assert [e["jobs"] for e in entries] == [1, 2]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == []


class TestEnvironmentControl:
    def test_disabled_by_conftest_env(self):
        # The suite runs with REPRO_LEDGER=0 (see conftest.py).
        assert not ledger_enabled()
        assert record_sweep(SweepStats(jobs=1)) is None

    def test_enabled_with_custom_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "custom.jsonl"))
        assert ledger_enabled()
        assert ledger_path() == tmp_path / "custom.jsonl"
        assert record_sweep(SweepStats(jobs=1)) == tmp_path / "custom.jsonl"
        assert len(read_ledger()) == 1


class TestSweepIntegration:
    def test_every_sweep_is_recorded(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        jobs = [SimulationRequest("ATAX", "gto", SMALL)]
        run_jobs(jobs, workers=1, cache=None)
        run_jobs(jobs, workers=1, cache=None)
        entries = read_ledger(path)
        assert len(entries) == 2
        assert all(e["jobs"] == 1 and e["executed"] == 1 for e in entries)
        assert all(e["backend"] == "reference" for e in entries)
        assert all(e["wall_seconds"] > 0 for e in entries)

    def test_warm_sweep_shows_in_ledger(self, tmp_path, monkeypatch):
        from repro.harness.cache import ResultCache

        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        cache = ResultCache(tmp_path / "cache")
        jobs = [SimulationRequest("ATAX", "gto", SMALL)]
        run_jobs(jobs, workers=1, cache=cache)   # cold
        run_jobs(jobs, workers=1, cache=cache)   # warm
        cold, warm = read_ledger(path)
        assert cold["cache_hits"] == 0 and warm["cache_hits"] == 1
        summary = summarize_ledger([cold, warm])
        assert summary["sweeps"] == 2
        assert summary["cold_sweeps"] == 1
        assert summary["warm_sweeps"] == 1
        assert summary["hit_rate"] == 0.5


class TestSummary:
    def test_summary_shape(self):
        entries = [
            {"jobs": 4, "cache_hits": 0, "cache_hit_rate": 0.0,
             "wall_seconds": 8.0, "backend": "reference"},
            {"jobs": 4, "cache_hits": 4, "cache_hit_rate": 1.0,
             "wall_seconds": 0.1, "backend": "lockstep"},
        ]
        summary = summarize_ledger(entries)
        assert summary["jobs"] == 8
        assert summary["cache_hits"] == 4
        assert summary["mean_cold_wall_seconds"] == 8.0
        assert summary["mean_warm_wall_seconds"] == 0.1
        assert summary["sweeps_by_backend"] == {"reference": 1, "lockstep": 1}

    def test_empty_summary(self):
        summary = summarize_ledger([])
        assert summary["sweeps"] == 0
        assert summary["hit_rate"] == 0.0

    def test_entries_are_json_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        record_sweep(SweepStats(jobs=1, executed=1, backend="reference"), path=path)
        line = path.read_text().strip()
        assert json.loads(line)["backend"] == "reference"


class TestMergeDedup:
    def test_coordinator_retry_rows_count_once(self):
        """A re-dispatched shard delivers the *same* sweep row twice; the
        merge must drop the duplicate or summarize_ledger double-counts
        that worker's jobs (the historic bug)."""
        row = sweep_entry(
            SweepStats(jobs=4, executed=4, backend="reference"),
            keys=["a" * 32, "b" * 32],
        )
        other = sweep_entry(
            SweepStats(jobs=2, executed=2, backend="reference"),
            keys=["c" * 32],
        )
        merged = merge_ledger_entries([[row, other], [dict(row)]])
        assert merged == [row, other]
        assert summarize_ledger(merged)["jobs"] == 6

    def test_keys_digest_ignores_order_and_duplicates(self):
        assert keys_digest(["b" * 32, "a" * 32]) == keys_digest(
            ["a" * 32, "b" * 32, "a" * 32]
        )
        assert keys_digest(["a" * 32]) != keys_digest(["b" * 32])

    def test_rows_without_identity_are_kept_verbatim(self):
        # Legacy sweep rows (no keys_digest) and serve drain rows describe
        # sessions, not re-mergeable work units: never dropped.
        legacy = {"jobs": 1, "cache_hits": 0}
        serve = {"kind": "serve", "requests": 9}
        merged = merge_ledger_entries([[legacy, serve], [dict(legacy)]])
        assert merged == [legacy, serve, legacy]

    def test_bench_rows_dedup_by_rev_and_ts(self):
        # Bench rows of older releases were once deduplicated by (rev, ts).
        # Their writer is gone, so they carry no identity: even a repeated
        # (rev, ts) is kept verbatim, and no bench row counts as a sweep.
        bench = {"kind": "bench", "rev": "abc123", "ts": 1.0, "best_sps": 5.0}
        merged = merge_ledger_entries([[bench], [dict(bench)],
                                       [{**bench, "ts": 2.0}]])
        assert merged == [bench, bench, {**bench, "ts": 2.0}]
        assert summarize_ledger(merged)["sweeps"] == 0
