"""Tests for the ``repro`` command-line interface."""

import json

import pytest

from repro.cli import REPRODUCE_TARGETS, build_parser, main
from repro.harness import experiments


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["run", "ATAX"],
            ["sweep", "-b", "ATAX", "-s", "gto"],
            ["reproduce", "fig8"],
            ["cache"],
            ["list"],
            ["serve", "--port", "0", "--workers", "1"],
            ["submit", "ATAX", "gto", "--scale", "0.1"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_every_reproduce_target_maps_to_an_experiment(self):
        for target, fn_name in REPRODUCE_TARGETS.items():
            assert hasattr(experiments, fn_name), (target, fn_name)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ATAX" in out and "ciao-c" in out and "fig8" in out

    def test_list_backends_shows_availability(self, capsys):
        assert main(["list", "--backends"]) == 0
        out = capsys.readouterr().out
        for name in ("reference", "lockstep", "vector", "chaos"):
            assert name in out
        # The real engines are always available.
        core = [line for line in out.splitlines()
                if not line.startswith("chaos")]
        assert all("unavailable" not in line for line in core)

    def test_list_backends_flags_unavailable_engines(self, capsys):
        assert main(["list", "--backends"]) == 0
        out = capsys.readouterr().out
        # The chaos wrapper is *expected* to be unavailable until a fault
        # plan is configured; its listing must say so and point at the knob.
        assert "chaos (unavailable:" in out and "fault plan" in out
        # Selecting the unavailable engine fails cleanly, not with a traceback.
        rc = main(["run", "ATAX", "gto", "--scale", "0.02", "--backend", "chaos"])
        assert rc == 2
        assert "fault plan" in capsys.readouterr().err

    def test_run_json(self, capsys):
        rc = main(["run", "ATAX", "gto", "ciao_c",
                   "--scale", "0.05", "--no-cache", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["benchmark"] == "ATAX"
        schedulers = [row["scheduler"] for row in data["rows"]]
        assert schedulers == ["gto", "ciao-c"]  # alias canonicalised
        assert all(row["ipc"] > 0 for row in data["rows"])

    def test_sweep_json(self, capsys):
        rc = main(["sweep", "-b", "ATAX", "SYRK", "-s", "gto", "ciao-c",
                   "--scale", "0.05", "--no-cache", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["benchmarks"] == ["ATAX", "SYRK"]
        assert data["baseline"] == "gto"
        assert data["normalized_ipc"]["ATAX"]["gto"] == pytest.approx(1.0)

    def test_sweep_selector(self, capsys):
        rc = main(["sweep", "-b", "memory-intensive", "-s", "gto",
                   "--scale", "0.03", "--no-cache", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert "GESUMMV" in data["benchmarks"] and len(data["benchmarks"]) == 7

    def test_sweep_seed_per_job_is_deterministic(self, capsys):
        argv = ["sweep", "-b", "ATAX", "-s", "gto", "--scale", "0.05",
                "--seed-per-job", "--no-cache", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_sweep_leaves_failed_cells_out_of_geomeans(self, monkeypatch, capsys):
        import repro.harness.parallel as parallel

        real = parallel._execute

        def failing(job, attempt=1):
            if (job.benchmark_name, job.scheduler) == ("SYRK", "ciao-c"):
                raise RuntimeError("injected failure")
            return real(job, attempt)

        monkeypatch.setattr(parallel, "_execute", failing)
        argv = ["sweep", "-b", "ATAX", "SYRK", "-s", "gto", "ciao-c",
                "--scale", "0.03", "--workers", "1", "--on-error", "skip"]
        assert main(argv + ["--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["normalized_ipc"]["SYRK"] == {"gto": 1.0}
        atax = data["normalized_ipc"]["ATAX"]["ciao-c"]
        assert [(f["benchmark"], f["scheduler"]) for f in data["failures"]] == [
            ("SYRK", "ciao-c")
        ]

        assert main(argv) == 1
        out = capsys.readouterr().out
        geomeans = dict(
            line.split() for line in out.split("Geomean speedup over gto:\n")[1]
            .split("\n\n")[0].splitlines()
        )
        # The one surviving ciao-c cell is the geomean; the failure is not a 0.
        assert geomeans == {"gto": "1.000", "ciao-c": f"{atax:.3f}"}
        assert "SYRK/ciao-c: RuntimeError: injected failure" in out

    def test_reproduce_table(self, capsys):
        rc = main(["reproduce", "table1"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_sms"] == 15

    def test_reproduce_to_file(self, tmp_path, capsys):
        out = tmp_path / "fig1b.json"
        rc = main(["reproduce", "fig1b", "--scale", "0.05", "--no-cache",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert set(data["rows"]) == {"best-swl", "ccws"}

    def test_reproduce_unknown_figure(self, capsys):
        assert main(["reproduce", "fig99"]) == 2

    def test_reproduce_forwards_seed_scale_workers(self, monkeypatch, capsys):
        seen = {}

        def fake(**kwargs):
            seen.update(kwargs)
            return {"ok": True}

        monkeypatch.setattr(experiments, "fig1_bestswl_vs_ccws", fake)
        assert main(["reproduce", "fig1b", "--seed", "7", "--scale", "0.2",
                     "--workers", "2", "--no-cache"]) == 0
        assert seen["seed"] == 7
        assert seen["scale"] == pytest.approx(0.2)
        assert seen["workers"] == 2
        assert seen["cache"] is None

    def test_unknown_benchmark_exits_cleanly(self, capsys):
        assert main(["run", "NOPE", "--no-cache"]) == 2

    def test_cache_info_and_clear(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache"]) == 0
        assert str(tmp_path) in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 0" in capsys.readouterr().out


class TestCacheStats:
    def test_missing_ledger_explained_not_empty(self, monkeypatch, tmp_path, capsys):
        # A fresh checkout has no .repro/ at all: the command must say so
        # plainly and exit 0 instead of printing a confusing empty report.
        monkeypatch.setenv(
            "REPRO_LEDGER_PATH", str(tmp_path / "nope" / "ledger.jsonl")
        )
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "no bench ledger yet" in out
        assert "repro sweep" in out  # the hint tells the user how to create one

    def test_existing_but_empty_ledger_explained(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text("")
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        assert main(["cache", "stats"]) == 0
        assert "has no entries yet" in capsys.readouterr().out

    def test_serve_sessions_summarised(self, monkeypatch, tmp_path, capsys):
        import json as json_mod

        path = tmp_path / "ledger.jsonl"
        row = {
            "kind": "serve", "ts": 1.0, "requests": 5, "hits": 1,
            "coalesced": 1, "executed": 3, "failed": 0, "rejected": 0,
            "batches": 2, "uptime_seconds": 9.0, "backend": "reference",
        }
        path.write_text(json_mod.dumps(row) + "\n")
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "serve sessions  : 1" in out
        assert "5 requests" in out and "1 coalesced" in out
        # A serve-only ledger has no sweeps: the recent-sweeps table must
        # be omitted, not crash on an empty row list.
        assert "most recent sweeps" not in out

    def test_only_sweep_rows_count_as_sweeps(self, monkeypatch, tmp_path, capsys):
        # Serve sessions, worker audits and the bench rows of older
        # releases share the ledger; none of them is a sweep.
        path = tmp_path / "ledger.jsonl"
        rows = [
            {"ts": 1.0, "jobs": 3, "cache_hits": 0, "executed": 3, "workers": 2,
             "wall_seconds": 1.5, "cache_hit_rate": 0.0, "backend": "vector"},
            {"kind": "serve", "ts": 2.0, "requests": 5, "hits": 1,
             "coalesced": 1, "executed": 3},
            {"kind": "audit", "ts": 3.0, "worker": "127.0.0.1:9", "key": "k",
             "verdict": "mismatch", "detail": "digest"},
            {"kind": "bench", "ts": 4.0, "rev": "abc1234",
             "cycles_per_second": 1000.0},
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache"]) == 0
        assert "(1 sweeps recorded)" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "sweeps          : 1 (1 cold, 0 warm)" in out
        table = out.split("most recent sweeps:")[1].strip().splitlines()
        assert len(table) == 3  # header, rule and the one sweep


#: Usage errors, each reported by ``main()`` as one ``error:`` line, exit 2.
BAD_KNOBS = [
    ["serve", "--workers", "0"],
    ["serve", "--batch-max", "0"],
    ["serve", "--linger", "-1"],
    ["serve", "--backend", "not-a-backend"],
    ["serve", "--retry-max", "0"],
    ["serve", "--batch-timeout", "0"],
    ["serve", "--max-queue-depth", "0"],
    ["worker", "--workers", "0"],
    ["worker", "--backend", "not-a-backend"],
    ["sweep", "-b", "ATAX", "-s", "gto", "--chaos", "7"],
    ["sweep", "-b", "ATAX", "-s", "gto", "--max-attempts", "0"],
    ["sweep", "-b", "ATAX", "-s", "gto", "--timeout", "0"],
    ["sweep", "-b", "ATAX", "-s", "gto", "--workers-at", "127.0.0.1:9",
     "--chunk-size", "0"],
    ["sweep", "-b", "ATAX", "-s", "gto", "--workers-at", "127.0.0.1:9",
     "--worker-roster", "roster.json"],
    ["run", "--tenants", "ATAX:1-0"],
    ["scenarios", "search", "--restarts", "0"],
    ["scenarios", "promote", "--restarts", "0", "--dry-run"],
]


class TestServeCli:
    def test_serve_rejects_bad_knobs(self, capsys):
        for argv in BAD_KNOBS:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and err.startswith("error:"), (argv, err)
            assert "Traceback" not in err, argv

    def test_submit_connection_refused_is_clean(self, capsys):
        # Nothing listens on this port: the client must fail with rc 1 and
        # a message, not a traceback.
        rc = main([
            "submit", "ATAX", "gto", "--scale", "0.02",
            "--url", "http://127.0.0.1:9", "--timeout", "5",
        ])
        assert rc == 1
        assert capsys.readouterr().err

    def test_submit_hung_server_times_out_with_exit_code_3(self, capsys):
        import socket
        import threading

        # A "server" that accepts the TCP connection and then never sends a
        # byte back: the client must distinguish this from connection-refused
        # (rc 1) with a dedicated exit code so scripts can tell "hung" from
        # "down".
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        held: list = []

        def accept_and_hold():
            try:
                conn, _ = listener.accept()
                held.append(conn)  # keep it open; never respond
            except OSError:
                pass

        thread = threading.Thread(target=accept_and_hold, daemon=True)
        thread.start()
        try:
            rc = main([
                "submit", "ATAX", "gto", "--scale", "0.02",
                "--url", f"http://127.0.0.1:{port}", "--timeout", "0.5",
            ])
        finally:
            listener.close()
            for conn in held:
                conn.close()
            thread.join(timeout=5)
        assert rc == 3
        err = capsys.readouterr().err
        assert "never responded" in err and "timed out" in err

    def test_submit_round_trip_against_live_service(self, capsys):
        import asyncio
        import threading

        from repro.serve import ReproService

        service = ReproService(host="127.0.0.1", port=0, cache=None, workers=1)
        started = threading.Event()

        def run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            loop.run_until_complete(service.start())
            started.set()
            loop.run_until_complete(service.wait_closed())
            loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(timeout=15)
        try:
            url = f"http://127.0.0.1:{service.port}"
            rc = main([
                "submit", "ATAX", "gto", "--scale", "0.02", "--url", url,
            ])
            out = capsys.readouterr().out
            assert rc == 0
            assert "executed via job" in out and "ipc" in out
            rc = main([
                "submit", "ATAX", "gto", "--scale", "0.02",
                "--url", url, "--json",
            ])
            payload = json.loads(capsys.readouterr().out)
            assert payload["kind"] == "SimulationResult"
        finally:
            import http.client

            conn = http.client.HTTPConnection(
                "127.0.0.1", service.port, timeout=30
            )
            conn.request("POST", "/shutdown", b"")
            conn.getresponse().read()
            conn.close()
            thread.join(timeout=60)
        assert not thread.is_alive()
