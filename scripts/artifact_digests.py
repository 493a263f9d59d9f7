#!/usr/bin/env python3
"""Train, evaluate, run the oracle and print the sha256 of every deterministic artifact.

Trains each of ``evcoop.marl.ALGORITHMS`` for ``--episodes`` episodes at
``--seed``, evaluates each checkpoint with ``evcoop evaluate --seed
<eval-seed>``, then does the same again under ``mixer_grad``
(``{"train": {"agent_loss_mode": "mixer_grad"}}``, the mode in which the
mixer's gradient reaches the agents), writing that variant's runs under
``mixer_grad/``.  Each variant's training runs are summarized with
``evcoop compare``, and its ``summary.csv`` and ``long.csv`` are digested,
and so is the ``resolved_config.json`` its last training run echoed.  It runs
``evcoop oracle --instances 20 --seed <seed>`` with full lookahead and with
``--lookahead 1``, and prints one ``<sha256>  <path>`` line per
``metrics.csv``, ``trace.csv`` and ``oracle_metrics.csv``.
Next to each ``oracle_metrics.csv`` it writes and digests ``oracle_api.txt``:
for each of the same instances, the optimum, its action sequence and node
count from ``brute_force`` and the total and sequence of ``rolling_greedy``
at that lookahead, which the profit-only CSV does not pin.  It also writes
and digests ``oracle/tight/oracle_api.txt`` for instances whose battery
and import/export caps are drawn small enough that feasibility masks occur
and some searches fail: one line per instance with the optimum and the
greedy at lookahead 1 and at full lookahead, each as its results or the
repr of the error it raised.  ``oracle/three/oracle_api.txt`` does the
same for 3-station, 2-slot instances, one line each with the optimum, its
sequence and node count and the full-lookahead greedy, so the joint action
order of more than two stations is pinned too.  ``oracle/wide/oracle_api.txt``
holds tight-cap lines, as ``oracle/tight`` does, for 3-station, 1-slot
instances on the default 15-action grid, whose one row has 3,375 joint
actions, more than one block of the search holds.  Each
``checkpoint.npz`` gets two lines, ``<path> params`` over its parameter
arrays and ``<path> meta`` over its format version and metadata JSON, so a
metadata-only change does not look like a numeric one.  It runs the
three fuzzers as ``evcoop fuzz --seed <seed>`` does and writes and digests
``fuzz/fuzz_summary.txt``: each report's name, calls, violations and notes,
without its timing.
Last, a short double_qmix run on a 3-station synthetic-mode scenario
(``{"scenario": {"mode": "synthetic", "station_count": 3}}``, under
``synthetic/``) digests its ``metrics.csv``, checkpoint and ``trace.csv``,
so the scenario generators are covered too, and one more on 6 stations
(under ``synthetic6/``) does the same for a market that clears six
stations on every slot.
Run it at two commits and diff the outputs to check that a change keeps
every artifact byte-identical:

    python3 scripts/artifact_digests.py --out /tmp/a > a.txt
    python3 scripts/artifact_digests.py --out /tmp/b --checkpoints /tmp/a > b.txt
    diff a.txt b.txt

``--checkpoints`` evaluates the checkpoints an earlier run wrote instead of
this run's own, so the second run above also checks that the new code reads
the old checkpoints the same way.  The ``mixer_grad`` variant reads its
checkpoints from ``mixer_grad/`` under that directory, and each synthetic run
from its own subdirectory, or from this run's own if that directory was
written before that synthetic run existed.  ``--checkpoints`` reads only
checkpoints of this tree's ``evcoop.nn.checkpoint.FORMAT_VERSION``: across
a change of format, run both trees without it, and only the checkpoint
``params`` and ``meta`` lines should differ.  ``--config`` merges
extra JSON into the run config of both variants and of the synthetic runs (say
``'{"train": {"hidden_dim": 1}}'``).  The package is
imported from the ``src`` next to this script, not from the environment.
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

# (subdirectory, config merged into the run config) of each training variant
VARIANTS = (("", {}), ("mixer_grad", {"train": {"agent_loss_mode": "mixer_grad"}}))
# the synthetic-mode runs: (subdirectory, station count) of each, their algorithm and episode count
SYNTHETIC_RUNS = (("synthetic", 3), ("synthetic6", 6))
SYNTHETIC_ALGORITHM, SYNTHETIC_EPISODES = "double_qmix", 8
ORACLE_INSTANCES = 20
TIGHT_INSTANCES = 40
THREE_STATION_INSTANCES = 10
WIDE_INSTANCES = 8
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


def digests(out: Path, variant: str, episodes: int, seed: int, eval_seed: int,
            algorithms: list[str], extra: dict, checkpoints: Path | None) -> list[str]:
    root = out / variant
    root.mkdir(parents=True, exist_ok=True)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(_merge({"train": {"episodes": episodes}}, extra)))
    lines = []
    for algorithm in algorithms:
        run = f"{algorithm}_seed{seed}"
        _run(["train", "--config", str(cfg), "--seed", str(seed), "--algorithm", algorithm,
              "--out", str(root / "train")])
        checkpoint = (checkpoints or out) / variant / "train" / run / "checkpoint.npz"
        _run(["evaluate", "--config", str(cfg), "--checkpoint", str(checkpoint),
              "--seed", str(eval_seed), "--out", str(root / "evaluate" / run)])
        lines.append(_digest(root / "train" / run / "metrics.csv", out))
        lines += _checkpoint_digests(root / "train" / run / "checkpoint.npz", out)
        lines.append(_digest(root / "evaluate" / run / "trace.csv", out))
    _run(["compare", "--runs", str(root / "train"), "--out", str(root / "compare")])
    lines += [_digest(root / "compare" / name, out) for name in ("summary.csv", "long.csv")]
    lines.append(_digest(root / "train" / "resolved_config.json", out))
    return lines


def synthetic_digests(out: Path, name: str, stations: int, seed: int, eval_seed: int,
                      extra: dict, checkpoints: Path | None) -> list[str]:
    """The metrics, checkpoint and trace lines of one short synthetic-mode run under ``name``."""
    root = out / name
    root.mkdir(parents=True, exist_ok=True)
    cfg = root / "config.json"
    scenario = {"scenario": {"mode": "synthetic", "station_count": stations}}
    cfg.write_text(json.dumps(_merge(_merge({"train": {"episodes": SYNTHETIC_EPISODES}},
                                            scenario), extra)))
    run = f"{SYNTHETIC_ALGORITHM}_seed{seed}"
    _run(["train", "--config", str(cfg), "--seed", str(seed), "--algorithm",
          SYNTHETIC_ALGORITHM, "--out", str(root / "train")])
    checkpoint = Path(name) / "train" / run / "checkpoint.npz"
    if checkpoints is None or not (checkpoints / checkpoint).exists():
        checkpoints = out
    _run(["evaluate", "--config", str(cfg), "--checkpoint", str(checkpoints / checkpoint),
          "--seed", str(eval_seed), "--out", str(root / "evaluate" / run)])
    return [_digest(root / "train" / run / "metrics.csv", out),
            *_checkpoint_digests(root / "train" / run / "checkpoint.npz", out),
            _digest(root / "evaluate" / run / "trace.csv", out)]


def oracle_digests(out: Path, seed: int) -> list[str]:
    lines = []
    for name, lookahead in (("full", None), ("lookahead1", 1)):
        run = out / "oracle" / name
        extra = ["--lookahead", str(lookahead)] if lookahead else []
        _run(["oracle", "--instances", str(ORACLE_INSTANCES), "--seed", str(seed), *extra,
              "--out", str(run)])
        lines.append(_digest(run / "oracle_metrics.csv", out))
        (run / "oracle_api.txt").write_text(_oracle_api_rows([seed], ORACLE_INSTANCES,
                                                             lookahead))
        lines.append(_digest(run / "oracle_api.txt", out))
    tight = out / "oracle" / "tight" / "oracle_api.txt"
    tight.parent.mkdir(parents=True, exist_ok=True)
    tight.write_text(_tight_oracle_rows([seed, 1], TIGHT_INSTANCES))
    lines.append(_digest(tight, out))
    three = out / "oracle" / "three" / "oracle_api.txt"
    three.parent.mkdir(parents=True, exist_ok=True)
    three.write_text(_oracle_api_rows([seed, 2], THREE_STATION_INSTANCES, None,
                                      station_count=3, horizon=2))
    lines.append(_digest(three, out))
    wide = out / "oracle" / "wide" / "oracle_api.txt"
    wide.parent.mkdir(parents=True, exist_ok=True)
    wide.write_text(_tight_oracle_rows([seed, 3], WIDE_INSTANCES, station_count=3, horizon=1,
                                       grid=ActionGrid()))
    lines.append(_digest(wide, out))
    return lines


def _oracle_api_rows(entropy: list[int], count: int, lookahead: int | None, **shape) -> str:
    """One repr line per instance of ``random_tiny_instance(rng, **shape)``.

    ``entropy`` seeds the stream: ``[seed]`` is the one ``evcoop oracle --seed
    <seed>`` draws from.  ``lookahead=None`` runs the greedy at full lookahead.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    rows = []
    for k in range(count):
        instance = random_tiny_instance(rng, **shape)
        exact = brute_force(instance)
        total, actions = rolling_greedy(instance, lookahead or instance.episode.length)
        rows.append(repr((k, float(exact.profit), exact.actions, exact.nodes,
                          float(total), actions)))
    return "\n".join(rows) + "\n"


def _tight_oracle_rows(entropy: list[int], count: int, **shape) -> str:
    """One repr line per tight-cap instance: each search's results or its error.

    The instances are ``random_tiny_instance(rng, **shape)`` on the stream
    ``entropy`` seeds, with the caps and batteries redrawn small.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    rows = []
    for k in range(count):
        instance = random_tiny_instance(rng, **shape)
        cap, export_cap, import_cap = rng.uniform((4.0, 0.5, 0.5), (12.0, 4.0, 4.0)).tolist()
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
        for lookahead in (1, instance.episode.length):
            try:
                total, actions = rolling_greedy(instance, lookahead)
                row += [float(total), actions]
            except ValueError as exc:
                row.append(exc)
        rows.append(repr(tuple(row)))
    return "\n".join(rows) + "\n"


def fuzz_digests(out: Path, seed: int) -> list[str]:
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
    parser.add_argument("--config", default="{}", help="JSON merged into the run config")
    parser.add_argument("--out", help="keep the runs here (default: a temporary directory)")
    parser.add_argument("--checkpoints", type=Path,
                        help="evaluate the checkpoints under this earlier --out instead")
    args = parser.parse_args(argv)
    algorithms = args.algorithm or list(ALGORITHMS)
    extra = json.loads(args.config)
    with contextlib.ExitStack() as stack:
        out = Path(args.out) if args.out else Path(stack.enter_context(tempfile.TemporaryDirectory()))
        lines = [line for variant, config in VARIANTS
                 for line in digests(out, variant, args.episodes, args.seed, args.eval_seed,
                                     algorithms, _merge(config, extra), args.checkpoints)]
        lines += oracle_digests(out, args.seed) + fuzz_digests(out, args.seed)
        lines += [line for name, stations in SYNTHETIC_RUNS
                  for line in synthetic_digests(out, name, stations, args.seed, args.eval_seed,
                                                extra, args.checkpoints)]
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
