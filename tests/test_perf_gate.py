"""Tests for the throughput gate (``scripts/perf_gate.py``)."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPT = ROOT / "scripts" / "perf_gate.py"
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

_spec = importlib.util.spec_from_file_location("_perf_gate_test", SCRIPT)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

#: Medians of one workload; binary-exact, so "exactly on the bound" is exact.
BASE = {"setup_s": 0.5, "sim_kips": 40.0, "p50_ms": 4.0, "p99_ms": 160.0,
        "peak_rss_mb": 64.0}
#: Five runs around the median: an interquartile range of 3% of it.
SPREAD = (0.96, 0.99, 1.0, 1.02, 1.05)
#: Wider than every bound of BENCHMARK.json.
WIDE = (0.6, 0.8, 1.0, 1.2, 1.4)


def verdict(slowdown: float = 1.0, *, failed: int = 0) -> dict:
    """One run's JSON verdict, ``slowdown`` times slower in throughput and latency."""
    metrics = dict(BASE)
    metrics["sim_kips"] /= slowdown
    metrics["p50_ms"] *= slowdown
    metrics["p99_ms"] *= slowdown
    return {"correct": failed == 0, "attempted": 20, "failed": failed,
            "metrics": {name: {"value": value, "unit": "u"}
                        for name, value in metrics.items()}}


def runs(slowdown: float = 1.0, spread=SPREAD) -> list[dict]:
    out = []
    for factor in spread:
        run = verdict(slowdown)
        for reading in run["metrics"].values():
            reading["value"] *= factor
        out.append(run)
    return out


def verdicts(rows) -> dict:
    return {row["metric"]: row["verdict"] for row in rows}


class TestVerdict:
    @pytest.mark.parametrize("slowdown, code, regressed", [
        (1.0, 0, set()),
        (1.2, 0, set()),
        # A 25% slowdown sits exactly on the 25% bound for p50_ms and p99_ms
        # (not beyond it) and inside it for sim_kips (-20%): it passes.
        (1.25, 0, set()),
        (1.35, 1, {"sim_kips", "p50_ms", "p99_ms"}),
    ])
    def test_slowdowns(self, slowdown, code, regressed):
        rows, rc = perf_gate.gate(METRICS, runs(), runs(slowdown))
        assert rc == code
        assert {m for m, v in verdicts(rows).items() if v == "REGRESSED"} == regressed
        assert all(v in ("ok", "REGRESSED") for v in verdicts(rows).values())

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        rows, rc = perf_gate.gate(METRICS, runs(spread=WIDE), runs(1.35, spread=WIDE))
        assert rc == 0
        assert set(verdicts(rows).values()) == {"unresolved"}
        # ... unless every change run beats every parent run.
        rows, rc = perf_gate.gate(METRICS, runs(spread=WIDE), runs(0.4, spread=WIDE))
        assert rc == 0
        assert verdicts(rows)["p50_ms"] == "ok"
        assert verdicts(rows)["setup_s"] == "unresolved"


def _stub_tree(root: Path, run: dict) -> Path:
    """A checkout whose ``perfbench/run.py`` prints a fixed verdict line."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"print('stub report')\nprint({json.dumps(run)!r})\n"
    )
    return root


@pytest.mark.parametrize("change_run, code", [
    (verdict(), 0),
    (verdict(1.35), 1),
    (verdict(failed=1), 1),
])
def test_gate_end_to_end(tmp_path, change_run, code):
    base = _stub_tree(tmp_path / "base", verdict())
    change = _stub_tree(tmp_path / "change", change_run)
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(base), "serve-zipf"],
        cwd=change, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith(("parent ", "change ")) for line in lines) == 10
    for metric in METRICS:  # every metric gets a verdict
        row = next(line for line in lines if line.startswith(metric["name"] + " "))
        assert row.split()[-1] in ("ok", "REGRESSED")
