#!/usr/bin/env python3
"""Train, evaluate, run the oracle and print the sha256 of every deterministic artifact.

Each ``TRAINING`` row trains its algorithms at ``--seed``, evaluates each
checkpoint with ``evcoop evaluate --seed <eval-seed>`` and summarizes the
runs with ``evcoop compare``.  Each ``ORACLE`` row writes ``oracle_api.txt``,
what ``brute_force`` and ``rolling_greedy`` return on a stream of
``random_tiny_instance`` draws.  ``fuzz/fuzz_summary.txt`` holds each
fuzzer's name, calls, violations and notes, as ``evcoop fuzz --seed <seed>``
runs them, without the timing.  One ``<sha256>  <path>`` line is printed per
file; each ``checkpoint.npz`` gets two, ``<path> params`` over its parameter
arrays and ``<path> meta`` over its format version and metadata JSON, so a
metadata-only change does not look like a numeric one.

Run it at two commits and diff the outputs to check that a change keeps
every artifact byte-identical:

    python3 scripts/artifact_digests.py --out /tmp/a > a.txt
    python3 scripts/artifact_digests.py --out /tmp/b --checkpoints /tmp/a > b.txt
    diff a.txt b.txt

``--checkpoints`` evaluates the checkpoints an earlier run wrote, at the same
paths, so the second run above also checks that the new code reads them the
same way; a run the earlier tree did not write is evaluated from this run's
own checkpoint and named on stderr.  It reads only checkpoints of this tree's
``evcoop.nn.checkpoint.FORMAT_VERSION``: across a change of format, run both
trees without it, and only the checkpoint ``params`` and ``meta`` lines
should differ.  ``--algorithm`` and ``--episodes`` apply to the two
loss-mode rows; ``--config`` merges extra JSON into every training row's run
config (say ``'{"train": {"hidden_dim": 1}}'``).  The package is imported
from the ``src`` next to this script, not from the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from evcoop.cli import main as evcoop  # noqa: E402
from evcoop.fuzz import fuzz_battery, fuzz_clearing, fuzz_profit  # noqa: E402
from evcoop.marl import ALGORITHMS  # noqa: E402
from evcoop.marl.encoding import ActionGrid  # noqa: E402
from evcoop.oracle import brute_force, random_tiny_instance, rolling_greedy  # noqa: E402

# (directory, config merged into the run config, algorithms, episodes) of each training row;
# None takes --algorithm or --episodes
TRAINING = (
    # the default agent loss mode, on the bundled two-station scenario
    ("", {}, None, None),
    # the loss mode in which the mixer's gradient reaches the agents
    ("mixer_grad", {"train": {"agent_loss_mode": "mixer_grad"}}, None, None),
    # the scenario generators, on a three-station market
    ("synthetic", {"scenario": {"mode": "synthetic", "station_count": 3}}, ("double_qmix",), 8),
    # a market that clears six stations on every slot
    ("synthetic6", {"scenario": {"mode": "synthetic", "station_count": 6}}, ("double_qmix",), 8),
    # crosses several target syncs, so the eval agents drift away from the target agents
    # between them: a batch of 2 from a 4-episode buffer, a sync every 2 episodes
    ("sync", {"train": {"batch_episodes": 2, "capacity": 4, "target_period": 2}},
     ("double_qmix", "qmix", "independent_dqn"), 12),
    # the sync row at learning rates high enough that the three algorithms' greedy
    # evaluations take different actions, so their traces tell them apart
    ("sync_lr", {"train": {"batch_episodes": 2, "capacity": 4, "target_period": 2,
                           "lr_agent": 0.05, "lr_mixer": 0.05}},
     ("double_qmix", "qmix", "independent_dqn"), 12),
)
# the (low, high) bounds of the battery capacity, export and import caps a tight row redraws
TIGHT = ((4.0, 0.5, 0.5), (12.0, 4.0, 4.0))
# (directory, stream after --seed, instances, greedy lookaheads, caps, instance shape) of each
# oracle row; lookahead None is full lookahead, caps None keeps the drawn ones
ORACLE = (
    # the stream ``evcoop oracle --seed`` draws, at full lookahead and at lookahead 1
    ("full", (), 20, (None,), None, {}),
    ("lookahead1", (), 20, (1,), None, {}),
    # caps small enough that feasibility masks occur and some searches fail
    ("tight", (1,), 40, (1, None), TIGHT, {}),
    # the joint action order of more than two stations
    ("three", (2,), 10, (None,), None, {"station_count": 3, "horizon": 2}),
    # one row holds 3,375 joint actions on the default 15-action grid, more than a search block
    ("wide", (3,), 8, (1, None), TIGHT, {"station_count": 3, "horizon": 1, "grid": ActionGrid()}),
    # one station, so no two frontier rows share a state, over a search eight slots deep
    ("deep", (4,), 4, (2, None), None,
     {"station_count": 1, "horizon": 8, "grid": ActionGrid(ev_fractions=(0.0, 1.0), cs_levels=2)}),
    # two stations over four slots: the interior frontiers span several search blocks
    ("long", (5,), 4, (2, None), None, {"station_count": 2, "horizon": 4}),
)
# (fuzzer, calls, seed offset), as ``evcoop fuzz`` runs them by default
FUZZERS = ((fuzz_clearing, 100_000, 0), (fuzz_battery, 100_000, 1), (fuzz_profit, 10_000, 2))


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = evcoop(argv)
    if code != 0:
        raise SystemExit(f"evcoop {' '.join(argv)} exited {code}")


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def train(out: Path, directory: str, config: dict, algorithms, episodes: int, seed: int,
          eval_seed: int, checkpoints: Path | None) -> list[str]:
    """Train, evaluate and compare one training row under ``out / directory``."""
    root = out / directory
    root.mkdir(parents=True, exist_ok=True)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(_merge({"train": {"episodes": episodes}}, config)))
    lines = []
    for algorithm in algorithms:
        name = f"{algorithm}_seed{seed}"
        run = Path(directory, "train", name)
        _run(["train", "--config", str(cfg), "--seed", str(seed), "--algorithm", algorithm,
              "--out", str(root / "train")])
        checkpoint = (checkpoints or out) / run / "checkpoint.npz"
        if not checkpoint.exists():
            print(f"{run}: no {checkpoint}; evaluating this tree's own", file=sys.stderr)
            checkpoint = out / run / "checkpoint.npz"
        _run(["evaluate", "--config", str(cfg), "--checkpoint", str(checkpoint),
              "--seed", str(eval_seed), "--out", str(root / "evaluate" / name)])
        lines += [_digest(out / run / "metrics.csv", out),
                  *_checkpoint_digests(out / run / "checkpoint.npz", out),
                  _digest(root / "evaluate" / name / "trace.csv", out)]
    _run(["compare", "--runs", str(root / "train"), "--out", str(root / "compare")])
    lines += [_digest(root / "compare" / name, out) for name in ("summary.csv", "long.csv")]
    lines.append(_digest(root / "train" / "resolved_config.json", out))
    return lines


def oracle(out: Path, seed: int, directory: str, stream: tuple, count: int, lookaheads: tuple,
           caps, shape: dict) -> list[str]:
    """Write and digest one oracle row's ``oracle_api.txt``.

    Each line holds an instance's index, the optimum's profit, sequence and
    node count, then each lookahead's greedy total and sequence, or the error
    a search raised.  A row on the stream ``evcoop oracle --seed`` draws from
    first runs that command and digests its ``oracle_metrics.csv``.
    """
    root = out / "oracle" / directory
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    if not stream:
        flag = ["--lookahead", str(lookaheads[0])] if lookaheads[0] else []
        _run(["oracle", "--instances", str(count), "--seed", str(seed), *flag, "--out", str(root)])
        lines.append(_digest(root / "oracle_metrics.csv", out))
    rng = np.random.default_rng(np.random.SeedSequence([seed, *stream]))
    rows = []
    for k in range(count):
        instance = random_tiny_instance(rng, **shape)
        if caps:
            cap, export_cap, import_cap = rng.uniform(*caps).tolist()
            params = replace(instance.params, capacity_max=cap, export_cap=export_cap,
                             import_cap=import_cap)
            states = tuple(replace(s, battery_kwh=float(rng.uniform(params.capacity_min,
                                                                     params.usable_max)))
                           for s in instance.episode.initial_states)
            instance = replace(instance, params=params,
                               episode=replace(instance.episode, initial_states=states))
        row: list = [k]
        try:
            exact = brute_force(instance)
            row += [float(exact.profit), exact.actions, exact.nodes]
        except ValueError as exc:
            row.append(exc)
        for lookahead in lookaheads:
            try:
                total, actions = rolling_greedy(instance, lookahead or instance.episode.length)
                row += [float(total), actions]
            except ValueError as exc:
                row.append(exc)
        rows.append(f"{tuple(row)!r}\n")
    (root / "oracle_api.txt").write_text("".join(rows))
    return lines + [_digest(root / "oracle_api.txt", out)]


def fuzz(out: Path, seed: int) -> list[str]:
    path = out / "fuzz" / "fuzz_summary.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    reports = [fuzzer(calls, seed + offset) for fuzzer, calls, offset in FUZZERS]
    path.write_text("".join(f"{(r.name, r.calls, r.violations, r.notes)!r}\n" for r in reports))
    return [_digest(path, out)]


def _digest(path: Path, out: Path) -> str:
    """The sha256 of ``path`` with ``out`` written as ``<out>``, so that the
    ``out_dir`` a resolved config echoes does not differ between two ``--out``."""
    data = path.read_bytes().replace(str(out).encode(), b"<out>")
    return f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(out)}"


def _checkpoint_digests(path: Path, out: Path) -> list[str]:
    """The ``params`` and ``meta`` lines of one checkpoint.

    Each hashes the name, dtype, shape and bytes of its arrays in name order.
    """
    params, meta = hashlib.sha256(), hashlib.sha256()
    with np.load(path, allow_pickle=False) as archive:
        for name in sorted(archive.files):
            array = archive[name]
            part = params if name.startswith("param.") else meta
            part.update(repr((name, array.dtype.str, array.shape)).encode())
            part.update(np.ascontiguousarray(array).tobytes())
    where = path.relative_to(out)
    return [f"{params.hexdigest()}  {where} params", f"{meta.hexdigest()}  {where} meta"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--episodes", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eval-seed", type=int, default=3)
    parser.add_argument("--algorithm", action="append",
                        help=f"repeatable; default {', '.join(ALGORITHMS)}")
    parser.add_argument("--config", default="{}", help="JSON merged into every training row")
    parser.add_argument("--out", help="keep the runs here (default: a temporary directory)")
    parser.add_argument("--checkpoints", type=Path,
                        help="evaluate the checkpoints under this earlier --out instead")
    args = parser.parse_args(argv)
    extra = json.loads(args.config)
    with contextlib.ExitStack() as stack:
        out = Path(args.out) if args.out else Path(stack.enter_context(tempfile.TemporaryDirectory()))
        trained = [train(out, directory, _merge(config, extra),
                         algorithms or args.algorithm or ALGORITHMS, episodes or args.episodes,
                         args.seed, args.eval_seed, args.checkpoints)
                   for directory, config, algorithms, episodes in TRAINING]
        # the loss-mode rows print before the oracle and fuzz lines, as the golden file has them
        for lines in (*trained[:2], *(oracle(out, args.seed, *row) for row in ORACLE),
                      fuzz(out, args.seed), *trained[2:]):
            print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
