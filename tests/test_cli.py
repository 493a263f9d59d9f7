"""End-to-end command-line flows: artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest

from evcoop.cli import main
from evcoop.config import load_config_dict
from evcoop.report import read_metrics_csv, read_trace_csv, replay_trace


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny training run shared by the flow tests."""
    root = tmp_path_factory.mktemp("runs")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "train": {"episodes": 8, "batch_episodes": 4, "capacity": 32},
        "algorithms": ["double_qmix", "random"],
        "seeds": [0, 1],
        "out_dir": str(root / "out"),
    }))
    assert main(["train", "--config", str(cfg)]) == 0
    return root


def test_train_writes_expected_artifacts(trained):
    out = trained / "out"
    assert (out / "resolved_config.json").exists()
    for run in ["double_qmix_seed0", "double_qmix_seed1", "random_seed0", "random_seed1"]:
        assert (out / run / "metrics.csv").exists()
        assert (out / run / "timings.csv").exists()
        assert (out / run / "checkpoint.npz").exists()
    rows = read_metrics_csv(out / "double_qmix_seed0" / "metrics.csv")
    assert len(rows) == 8
    assert rows[0]["algorithm"] == "double_qmix"
    assert rows[0]["seed"] == 0
    # The resolved echo reloads to the identical configuration.
    echoed = json.loads((out / "resolved_config.json").read_text())
    assert load_config_dict(echoed).train.episodes == 8


def test_rerun_reproduces_metrics_bytes(trained, tmp_path):
    cfg = tmp_path / "cfg.json"
    base = json.loads((trained / "cfg.json").read_text())
    base["out_dir"] = str(tmp_path / "out")
    base["algorithms"] = ["double_qmix"]
    base["seeds"] = [0]
    cfg.write_text(json.dumps(base))
    assert main(["train", "--config", str(cfg)]) == 0
    first = (trained / "out" / "double_qmix_seed0" / "metrics.csv").read_bytes()
    second = (tmp_path / "out" / "double_qmix_seed0" / "metrics.csv").read_bytes()
    assert first == second


def test_evaluate_writes_replayable_trace(trained, tmp_path):
    ck = trained / "out" / "double_qmix_seed0" / "checkpoint.npz"
    code = main(["evaluate", "--checkpoint", str(ck), "--seed", "0",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = read_trace_csv(tmp_path / "trace.csv")
    assert rows[0]["slot"] == 0
    cfg = load_config_dict({})
    err = replay_trace(rows, cfg.ess, cfg.scenario.multipliers)
    assert err <= 1e-9


def test_compare_aggregates_runs(trained, tmp_path):
    code = main(["compare", "--runs", str(trained / "out"), "--window", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "algorithm,seeds,window,profit_mean,profit_median,profit_std"
    names = {line.split(",")[0] for line in summary[1:]}
    assert names == {"double_qmix", "random"}
    long_rows = (tmp_path / "long.csv").read_text().splitlines()
    assert long_rows[0] == "algorithm,seed,episode,total_profit"
    assert len(long_rows) == 1 + 4 * 8


def test_oracle_subcommand_writes_rows(tmp_path):
    code = main(["oracle", "--instances", "2", "--seed", "11", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "oracle_metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # one oracle and one greedy row per instance
    assert lines[1].split(",")[1] == "oracle"


@pytest.mark.parametrize("argv", [
    pytest.param(["oracle", "--instances", "0", "--out", "."], id="instances-0"),
    pytest.param(["oracle", "--instances", "1", "--lookahead", "0", "--out", "."],
                 id="lookahead-0"),
    pytest.param(["oracle", "--instances", "1", "--lookahead", "-1", "--out", "."],
                 id="lookahead-neg"),
    pytest.param(["compare", "--runs", "nowhere", "--window", "0"], id="window-0"),
    pytest.param(["fuzz", "--clearing", "1", "--battery", "1", "--profit", "0"], id="fuzz-0"),
])
def test_counts_below_one_are_rejected(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    flag = next(a for a in reversed(argv) if a.startswith("--") and a != "--out")
    assert capsys.readouterr().err.startswith(f"error: argument {flag}")
    assert not any(tmp_path.iterdir())


def test_fuzz_subcommand_quick_pass():
    assert main(["fuzz", "--clearing", "300", "--battery", "300", "--profit", "100"]) == 0


def test_exit_codes():
    assert main(["train", "--config", "/definitely/not/here.json"]) == 1
    assert main(["evaluate", "--checkpoint", "/definitely/not/here.npz"]) == 3
    assert main(["bogus"]) == 1


def test_invalid_config_value_exits_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"gamma": -2}}))
    assert main(["train", "--config", str(cfg)]) == 1


def test_evaluate_rejects_station_mismatch(trained, tmp_path):
    ck = trained / "out" / "double_qmix_seed0" / "checkpoint.npz"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"mode": "synthetic", "station_count": 3,
                                            "horizon": 12}}))
    assert main(["evaluate", "--checkpoint", str(ck), "--config", str(cfg)]) == 1


@pytest.mark.parametrize("damage", ["garbage", "truncated"])
def test_evaluate_corrupt_checkpoint_exits_three(trained, tmp_path, damage):
    good = (trained / "out" / "double_qmix_seed0" / "checkpoint.npz").read_bytes()
    ck = tmp_path / "checkpoint.npz"
    ck.write_bytes(b"not a checkpoint at all" if damage == "garbage" else good[: len(good) // 2])
    assert main(["evaluate", "--checkpoint", str(ck), "--out", str(tmp_path)]) == 3


def test_evaluate_rejects_battery_mismatch(trained, tmp_path, capsys):
    # The episode would be built with the config's battery but rolled out
    # with the checkpoint's: refuse instead of mixing the two.
    ck = trained / "out" / "double_qmix_seed0" / "checkpoint.npz"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ess": {"capacity_max": 150.0}}))
    assert main(["evaluate", "--checkpoint", str(ck), "--config", str(cfg),
                 "--out", str(tmp_path)]) == 1
    assert "battery" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()
