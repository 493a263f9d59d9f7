"""Tests of the benchmark itself; run with ``python3 -m pytest benchmark -q``.

Every run here is a smoke run (``--seconds 0.2``): one to ten items per
workload, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]


def bench(tmp_path: Path, workload: str, trace: int, cwd: Path = ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--trace", str(trace), "--out", str(tmp_path / "out")]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_runner_workloads():
    import run
    import workloads

    assert tuple(WORKLOADS) == run.WORKLOADS == tuple(workloads.REGISTRY)
    assert SPEC["paths"] == ["benchmark"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    proc = bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["notes"]["outputs_match_untraced"] is True
    else:
        env = json.loads((tmp_path / "out" / "run" / "env.json").read_text())
        assert set(env["blas"]["threads_env"].values()) == {"1"}


def test_oracle_failed_ratio_rises_when_a_reference_is_corrupted(tmp_path):
    import workloads

    wl = workloads.OracleTiny(3, 0.2, tmp_path)
    wl.run()
    failed, _, info = wl.check()
    assert failed == 0
    wl = workloads.OracleTiny(3, 0.2, tmp_path)
    wl.references = {"3": [optimum + 1.0 for optimum in info["optima"]]}
    wl.run()
    failed, _, _ = wl.check()
    assert failed / wl.count > 0


def test_rollout_failed_ratio_rises_when_a_trace_does_not_replay(tmp_path, monkeypatch):
    import workloads
    from evcoop import report

    write = report.write_trace_csv

    def corrupted(path, trace, params):
        write(path, trace, params)
        lines = Path(path).read_text().splitlines()
        cells = lines[1].split(",")
        cells[14] = repr(float(cells[14]) + 1.0)       # station profit of slot 0
        Path(path).write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")

    monkeypatch.setattr(report, "write_trace_csv", corrupted)
    wl = workloads.RolloutSixStation(3, 0.2, tmp_path)
    wl.run()
    failed, _, _ = wl.check()
    assert failed == wl.count


def test_fails_without_the_program_source(tmp_path):
    stripped = tmp_path / "stripped"
    shutil.copytree(HERE, stripped / "benchmark",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    proc = bench(tmp_path, "fuzz-market", 0, cwd=stripped)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
