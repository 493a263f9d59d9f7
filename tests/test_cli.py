"""End-to-end command-line flows: artifacts, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import evcoop
from csv_reference import csv_writer_bytes
from evcoop import cli
from evcoop.cli import main
from evcoop.config import load_config_dict
from evcoop.data import sample_data_path
from evcoop.report import read_csv, read_metrics_csv, read_trace_csv, replay_trace


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


def test_timings_csv_splits_each_episode_into_phases(trained):
    out = trained / "out"
    for run, trains in (("double_qmix_seed0", True), ("random_seed0", False)):
        with (out / run / "timings.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["episode", "wall_time_s", "rollout_s", "train_step_s", "targets_s",
                           "forward_s", "backward_s", "optimizer_s", "sync_s"]
        assert [int(r[0]) for r in rows[1:]] == list(range(1, 9))
        for r in rows[1:]:
            wall, rollout, step, *phases, sync = (float(v) for v in r[1:])
            assert rollout > 0.0 and step >= 0.0 and sync >= 0.0
            assert rollout + step + sync <= wall
            # the first train step comes once the buffer holds a batch of 4
            assert (step > 0.0) == (trains and int(r[0]) >= 4)
            # the train step's phases lie inside it, and each runs when it does
            assert sum(phases) <= step
            assert all((phase > 0.0) == (step > 0.0) for phase in phases)
    # metrics.csv keeps its columns; wall-clock numbers stay out of it
    header = (out / "double_qmix_seed0" / "metrics.csv").read_text().splitlines()[0]
    assert not any(name in header for name in rows[0][1:])


def test_run_csvs_are_the_csv_writer_bytes_of_their_values(trained, tmp_path):
    assert main(["compare", "--runs", str(trained / "out"), "--out", str(tmp_path)]) == 0
    run = trained / "out" / "random_seed1"
    for path, parsers in (
            (run / "metrics.csv", {"episode": int, "algorithm": str, "seed": int}),
            (run / "timings.csv", {"episode": int}),
            (tmp_path / "summary.csv", {"algorithm": str, "seeds": int, "window": int}),
            (tmp_path / "long.csv", {"algorithm": str, "seed": int, "episode": int})):
        rows = read_csv(path, parsers)
        want = csv_writer_bytes(list(rows[0]), [list(row.values()) for row in rows])
        assert path.read_bytes() == want, path.name


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


def test_evaluate_exits_two_when_its_trace_does_not_replay(trained, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr("evcoop.cli.replay_trace", lambda rows, params, multipliers: 1e-6)
    ck = trained / "out" / "double_qmix_seed0" / "checkpoint.npz"
    assert main(["evaluate", "--checkpoint", str(ck), "--out", str(tmp_path)]) == 2
    assert "profit error of 1.000e-06" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    pytest.param("algorithm,seed,episode,total_profit\n", id="header-only"),
    pytest.param("algorithm,seed,episode,total_profit\nqmix,0,1,lots\n", id="non-numeric"),
    pytest.param("seed,episode,total_profit\n0,1,2.5\n", id="no-algorithm-column"),
    pytest.param("algorithm,seed,episode,total_profit\nqmix,0\n", id="short-row"),
    pytest.param("algorithm,seed,episode\nqmix,0,1\n", id="no-total_profit-column"),
    pytest.param("algorithm,seed,episode,total_profit\nqmix,0,1,\n", id="blank-total_profit"),
])
def test_compare_rejects_malformed_metrics(tmp_path, capsys, text):
    bad = tmp_path / "metrics.csv"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main(["compare", "--runs", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not (out / "summary.csv").exists()


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


def test_compare_counts_a_run_named_twice_once(trained, tmp_path, capsys):
    # The directory holds the file named after it: one run, not two seeds.
    run = trained / "out" / "double_qmix_seed0"
    assert main(["compare", "--runs", str(run), str(run / "metrics.csv"), "--window", "4",
                 "--out", str(tmp_path)]) == 0
    with (tmp_path / "summary.csv").open(newline="") as fh:
        assert [(r["algorithm"], r["seeds"]) for r in csv.DictReader(fh)] == [("double_qmix", "1")]
    with (tmp_path / "long.csv").open(newline="") as fh:
        episodes = [r["episode"] for r in csv.DictReader(fh)]
    assert episodes == [str(e) for e in range(1, 9)]


@pytest.mark.parametrize("cell", ['"q,mix"', '"q""mix"', '"q\rmix"', '"q\nmix"'],
                         ids=["comma", "quote", "cr", "lf"])
def test_compare_rejects_an_algorithm_cell_it_would_have_to_quote(tmp_path, capsys, cell):
    bad = tmp_path / "metrics.csv"
    bad.write_bytes(f"episode,algorithm,seed,total_profit\r\n0,{cell},0,1.5\r\n".encode())
    out = tmp_path / "out"
    assert main(["compare", "--runs", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not (out / "summary.csv").exists()


def test_compare_summarizes_each_algorithm_of_an_oracle_file(tmp_path):
    assert main(["oracle", "--instances", "2", "--out", str(tmp_path)]) == 0
    rows = read_metrics_csv(tmp_path / "oracle_metrics.csv")
    assert main(["compare", "--runs", str(tmp_path / "oracle_metrics.csv"), "--window", "2",
                 "--out", str(tmp_path / "cmp")]) == 0
    with (tmp_path / "cmp" / "summary.csv").open(newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert [(r["algorithm"], r["seeds"]) for r in summary] == [("greedy-L3", "1"), ("oracle", "1")]
    for r in summary:
        profits = [row["total_profit"] for row in rows if row["algorithm"] == r["algorithm"]]
        assert float(r["profit_mean"]) == sum(profits) / 2
    long_rows = (tmp_path / "cmp" / "long.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in long_rows[1:]] == [
        ["oracle", "0", "0"], ["oracle", "0", "1"],
        ["greedy-L3", "0", "0"], ["greedy-L3", "0", "1"]]


def test_oracle_subcommand_writes_rows(tmp_path):
    code = main(["oracle", "--instances", "2", "--seed", "11", "--out", str(tmp_path)])
    assert code == 0
    rows = read_metrics_csv(tmp_path / "oracle_metrics.csv")
    assert len(rows) == 2 * 2  # one oracle and one greedy row per instance
    assert [(r["episode"], r["algorithm"]) for r in rows] == [
        (0, "oracle"), (0, "greedy-L3"), (1, "oracle"), (1, "greedy-L3")]
    for row in rows:
        assert row["seed"] == 11
        assert row["total_profit"] == pytest.approx(
            row["station_profit_0"] + row["station_profit_1"])
        assert row["l_mix"] is None and row["agent_loss_mean"] is None
        assert row["epsilon"] is None


@pytest.mark.parametrize("argv", [
    pytest.param(["oracle", "--instances", "0", "--out", "."], id="instances-0"),
    pytest.param(["oracle", "--instances", "1", "--lookahead", "0", "--out", "."],
                 id="lookahead-0"),
    pytest.param(["oracle", "--instances", "1", "--lookahead", "-1", "--out", "."],
                 id="lookahead-neg"),
    pytest.param(["compare", "--runs", "nowhere", "--window", "0"], id="window-0"),
    pytest.param(["fuzz", "--clearing", "1", "--battery", "1", "--profit", "0"], id="fuzz-0"),
    # A seed may be zero but not negative.
    pytest.param(["oracle", "--instances", "1", "--seed", "-3", "--out", "."], id="oracle-seed-neg"),
    pytest.param(["train", "--seed", "-3", "--out", "out"], id="train-seed-neg"),
    pytest.param(["evaluate", "--checkpoint", "missing.npz", "--seed", "-3", "--out", "."],
                 id="evaluate-seed-neg"),
    pytest.param(["fuzz", "--clearing", "1", "--battery", "1", "--profit", "1", "--seed", "-3"],
                 id="fuzz-seed-neg"),
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


def test_sample_mode_with_six_stations_exits_one_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"station_count": 6}}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "missing stations [2, 3, 4, 5]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


TINY_TRAIN = {"episodes": 3, "batch_episodes": 2, "capacity": 4,
              "hidden_dim": 2, "embed_dim": 2, "hyper_hidden": 2}


def test_battery_with_no_feasible_action_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ess": {"capacity_max": 1e-9}, "train": TINY_TRAIN,
                               "out_dir": str(tmp_path / "out")}))
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ess.capacity_max" in err and "ess.import_cap" in err


def test_train_printout_and_compare_default_describe_one_window(tmp_path, capsys, monkeypatch):
    # A window shorter than the run, so the printout's min() does not hide a mismatch.
    monkeypatch.setattr(cli, "FINAL_WINDOW", 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": TINY_TRAIN, "out_dir": str(tmp_path / "out")}))
    assert main(["train", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert main(["compare", "--runs", str(tmp_path / "out"), "--out", str(tmp_path / "cmp")]) == 0
    [row] = read_csv(tmp_path / "cmp" / "summary.csv", {"algorithm": str, "window": int})
    assert row["window"] == 2
    assert f"final-2 mean profit ${row['profit_mean']:.2f} " in printed


def test_huge_renewables_train_without_warnings(tmp_path):
    # Pre-activations far beyond the observation scales reach the mixer's elu.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"mode": "synthetic", "pv_peak_kwh": 1e9},
                               "train": TINY_TRAIN, "algorithms": ["double_qmix"],
                               "out_dir": str(tmp_path / "out")}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(cfg)]) == 0
    rows = read_metrics_csv(tmp_path / "out" / "double_qmix_seed0" / "metrics.csv")
    assert len(rows) == 3 and all(np.isfinite(r["total_profit"]) for r in rows)


def test_python_dash_m_runs_the_cli():
    src = str(Path(evcoop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "evcoop", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: evcoop")


def test_every_package_function_but_decode_table_runs_under_some_command():
    # ActionGrid.decode_table stays in the package only because the benchmark's
    # tracer wraps it; every other def in src/ must be entered by some command.
    script = Path(__file__).resolve().parents[1] / "scripts" / "unreached.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["evcoop.core.ActionGrid.decode_table"]


# the settings tests/golden_digests.txt was written at; rewrite that file, and say in
# CHANGES.md which lines changed and why, only when an artifact changes by design or
# scripts/artifact_digests.py gains a row
GOLDEN_ARGS = ("--episodes", "3", "--config", json.dumps(
    {"train": {"hidden_dim": 4, "embed_dim": 4, "hyper_hidden": 4, "batch_episodes": 2,
               "capacity": 4}}))


def _golden_digest_stderr(*args):
    """Run scripts/artifact_digests.py at GOLDEN_ARGS, check its lines, return its stderr."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "scripts" / "artifact_digests.py"),
                           *GOLDEN_ARGS, *args], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = done.stdout.splitlines()
    want = (root / "tests" / "golden_digests.txt").read_text().splitlines()
    path = lambda line: line.split("  ", 1)[1]
    assert [path(line) for line in got] == [path(line) for line in want]
    changed = [path(a) for a, b in zip(got, want) if a != b]
    assert not changed, f"these artifacts changed: {changed}"
    return done.stderr


def test_every_artifact_keeps_its_golden_digest(tmp_path):
    a = tmp_path / "a"
    assert _golden_digest_stderr("--out", str(a)) == ""
    # the sync_lr row's three evaluation traces tell its algorithms apart
    pins = [line.split("  ", 1) for line in
            Path(__file__).with_name("golden_digests.txt").read_text().splitlines()]
    assert len({digest for digest, path in pins if path.startswith("sync_lr/evaluate/")}) == 3
    # the second run reads the first's checkpoints, as a later tree would; a run the first
    # did not write is evaluated from the second's own checkpoint and named
    missing = a / "sync" / "train" / "qmix_seed0" / "checkpoint.npz"
    missing.unlink()
    stderr = _golden_digest_stderr("--out", str(tmp_path / "b"), "--checkpoints", str(a))
    assert stderr.splitlines() == [
        f"sync/train/qmix_seed0: no {missing}; evaluating this tree's own"]


def test_evaluate_rejects_station_mismatch(trained, tmp_path):
    ck = trained / "out" / "double_qmix_seed0" / "checkpoint.npz"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"mode": "synthetic", "station_count": 3,
                                            "horizon": 12}}))
    assert main(["evaluate", "--checkpoint", str(ck), "--config", str(cfg)]) == 1


def _rewritten(good, edit):
    """A copy of the checkpoint at ``good`` whose arrays ``edit`` has changed in place."""
    with np.load(good) as archive:
        arrays = {name: archive[name] for name in archive.files}
    edit(arrays)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _with_meta(good, edit):
    """A copy of the checkpoint at ``good`` whose metadata ``edit`` has changed."""

    def edit_meta(arrays):
        meta = json.loads(str(arrays["meta_json"]))
        edit(meta)
        arrays["meta_json"] = np.array(json.dumps(meta))

    return _rewritten(good, edit_meta)


HEAD_W = "param.eval.agents.head.W"


@pytest.mark.parametrize("damage", ["garbage", "truncated", "no-train-config", "unknown-field",
                                    "nonfinite-param", "meta-not-object",
                                    "meta-not-object-string", "version-not-integer",
                                    "version-not-integer-list", "version-not-integer-text",
                                    "param-not-float", "param-not-float-complex",
                                    "previous-format"])
def test_evaluate_corrupt_checkpoint_exits_three(trained, tmp_path, capsys, damage):
    good = trained / "out" / "double_qmix_seed0" / "checkpoint.npz"
    ck = tmp_path / "checkpoint.npz"
    ck.write_bytes({
        "garbage": lambda: b"not a checkpoint at all",
        "truncated": lambda: good.read_bytes()[: good.stat().st_size // 2],
        "no-train-config": lambda: _with_meta(good, lambda m: m.pop("train_config")),
        "unknown-field": lambda: _with_meta(good, lambda m: m["train_config"].update(bogus=1)),
        "nonfinite-param": lambda: _rewritten(good, lambda a: a[HEAD_W].fill(np.nan)),
        "meta-not-object": lambda: _rewritten(good, lambda a: a.update(meta_json=np.array("[]"))),
        "meta-not-object-string": lambda: _rewritten(
            good, lambda a: a.update(meta_json=np.array('"x"'))),
        "version-not-integer": lambda: _rewritten(
            good, lambda a: a.update(format_version=np.array(1.5))),
        "version-not-integer-list": lambda: _rewritten(
            good, lambda a: a.update(format_version=np.array([1, 2]))),
        "version-not-integer-text": lambda: _rewritten(
            good, lambda a: a.update(format_version=np.array("abc"))),
        "param-not-float": lambda: _rewritten(
            good, lambda a: a.update({HEAD_W: a[HEAD_W].astype(str)})),
        "param-not-float-complex": lambda: _rewritten(
            good, lambda a: a.update({HEAD_W: a[HEAD_W] + 1j})),
        "previous-format": lambda: _rewritten(
            good, lambda a: a.update(format_version=np.array(1))),
    }[damage]())
    assert main(["evaluate", "--checkpoint", str(ck), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert str(ck) in err
    assert {
        "meta-not-object": "not an object",
        "meta-not-object-string": "not an object",
        "version-not-integer": "expected the integer 2",
        "version-not-integer-list": "expected the integer 2",
        "version-not-integer-text": "expected the integer 2",
        "param-not-float": "eval.agents.head.W has dtype <U",
        "param-not-float-complex": "eval.agents.head.W has dtype complex128, expected float64",
        "previous-format": "format version 1, expected 2",
    }.get(damage, "") in err


def test_evaluate_checkpoint_missing_a_gate_entry_exits_three(trained, tmp_path, capsys):
    good = trained / "out" / "double_qmix_seed0" / "checkpoint.npz"
    ck = tmp_path / "checkpoint.npz"
    ck.write_bytes(_rewritten(good, lambda a: a.pop("param.eval.agents.gru.b")))
    assert main(["evaluate", "--checkpoint", str(ck), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "missing ['eval.agents.gru.b']" in err and str(ck) in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("override, field", [
    ({"grid": {"cs_levels": 3}}, "grid"),
    ({"scales": {"price": 0.5}}, "scales"),
    ({"grid": {"cs_levels": 3}, "scales": {"price": 0.5}}, "grid"),
])
def test_evaluate_rejects_grid_or_scales_mismatch(trained, tmp_path, capsys, override, field):
    # The rollout would observe and act with the checkpoint's grid and scales
    # while the config names others: refuse instead of ignoring the config.
    ck = trained / "out" / "double_qmix_seed0" / "checkpoint.npz"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    assert main(["evaluate", "--checkpoint", str(ck), "--config", str(cfg),
                 "--out", str(tmp_path)]) == 1
    assert f"trained with {field}" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_evaluate_accepts_a_config_restating_the_checkpoint_grid_and_scales(trained, tmp_path):
    ck = trained / "out" / "double_qmix_seed0" / "checkpoint.npz"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"ev_fractions": [0.0, 0.5, 1.0], "cs_levels": 5},
                               "scales": {"price": 0.1, "demand_all": 100.0}}))
    assert main(["evaluate", "--checkpoint", str(ck), "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("name", ["two_station_48h_price.csv", "two_station_48h_pv.csv"])
def test_train_rejects_a_csv_timestamp_with_a_utc_offset(tmp_path, capsys, name):
    # The CSVs hold local hours; an offset row exits 1 naming its line.
    paths = {}
    for sample in ("two_station_48h_price.csv", "two_station_48h_pv.csv"):
        paths[sample] = tmp_path / sample
        paths[sample].write_bytes(sample_data_path(sample).read_bytes())
    lines = paths[name].read_text().splitlines()
    line = next(k for k, text in enumerate(lines) if text.startswith("2024-06-01T05:00:00"))
    lines[line] = lines[line].replace("2024-06-01T05:00:00", "2024-06-01T05:00+00:00")
    paths[name].write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"mode": "csv", "price_csv": str(paths["two_station_48h_price.csv"]),
                     "pv_csv": str(paths["two_station_48h_pv.csv"])},
        "train": {"episodes": 1}, "out_dir": str(tmp_path / "out"),
    }))
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{paths[name]}:{line + 1}: timestamp '2024-06-01T05:00+00:00' has a UTC offset" in err
    assert "Traceback" not in err
