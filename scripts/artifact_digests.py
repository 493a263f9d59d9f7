#!/usr/bin/env python3
"""Train, evaluate, run the oracle and print the sha256 of every deterministic artifact.

Trains each algorithm for ``--episodes`` episodes at ``--seed``, evaluates
each checkpoint with ``evcoop evaluate --seed <eval-seed>``, runs
``evcoop oracle --instances 20 --seed <seed>`` with full lookahead and with
``--lookahead 1``, and prints one ``<sha256>  <path>`` line per
``metrics.csv``, ``checkpoint.npz``, ``trace.csv`` and ``oracle_metrics.csv``.
Next to each ``oracle_metrics.csv`` it writes and digests ``oracle_api.txt``:
for each of the same instances, the optimum, its action sequence and node
count from ``brute_force`` and the total and sequence of ``rolling_greedy``
at that lookahead, which the profit-only CSV does not pin.
Run it at two commits and diff the outputs to check that a change keeps
every artifact byte-identical:

    python3 scripts/artifact_digests.py --out /tmp/a > a.txt
    python3 scripts/artifact_digests.py --out /tmp/b --checkpoints /tmp/a > b.txt
    diff a.txt b.txt

``--checkpoints`` evaluates the checkpoints an earlier run wrote instead of
this run's own, so the second run above also checks that the new code reads
the old checkpoints the same way.  ``--config`` merges extra JSON into the
run config (say ``'{"train": {"hidden_dim": 1}}'``).  The package is
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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from evcoop.cli import main as evcoop  # noqa: E402
from evcoop.oracle import brute_force, random_tiny_instance, rolling_greedy  # noqa: E402

DEFAULT_ALGORITHMS = ("double_qmix", "qmix", "independent_dqn")
ORACLE_INSTANCES = 20


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


def digests(out: Path, episodes: int, seed: int, eval_seed: int, algorithms: list[str],
            extra: dict, checkpoints: Path | None) -> list[str]:
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "config.json"
    cfg.write_text(json.dumps(_merge({"train": {"episodes": episodes}}, extra)))
    lines = []
    for algorithm in algorithms:
        run = f"{algorithm}_seed{seed}"
        _run(["train", "--config", str(cfg), "--seed", str(seed), "--algorithm", algorithm,
              "--out", str(out / "train")])
        checkpoint = (checkpoints or out) / "train" / run / "checkpoint.npz"
        _run(["evaluate", "--config", str(cfg), "--checkpoint", str(checkpoint),
              "--seed", str(eval_seed), "--out", str(out / "evaluate" / run)])
        for path in (out / "train" / run / "metrics.csv",
                     out / "train" / run / "checkpoint.npz",
                     out / "evaluate" / run / "trace.csv"):
            lines.append(_digest(path, out))
    return lines


def oracle_digests(out: Path, seed: int) -> list[str]:
    lines = []
    for name, lookahead in (("full", None), ("lookahead1", 1)):
        run = out / "oracle" / name
        extra = ["--lookahead", str(lookahead)] if lookahead else []
        _run(["oracle", "--instances", str(ORACLE_INSTANCES), "--seed", str(seed), *extra,
              "--out", str(run)])
        lines.append(_digest(run / "oracle_metrics.csv", out))
        (run / "oracle_api.txt").write_text(_oracle_api_rows(seed, lookahead))
        lines.append(_digest(run / "oracle_api.txt", out))
    return lines


def _oracle_api_rows(seed: int, lookahead: int | None) -> str:
    """One repr line per instance that ``evcoop oracle --seed <seed>`` draws."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    rows = []
    for k in range(ORACLE_INSTANCES):
        instance = random_tiny_instance(rng)
        exact = brute_force(instance)
        total, actions = rolling_greedy(instance, lookahead or instance.episode.length)
        rows.append(repr((k, float(exact.profit), exact.actions, exact.nodes,
                          float(total), actions)))
    return "\n".join(rows) + "\n"


def _digest(path: Path, out: Path) -> str:
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--episodes", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eval-seed", type=int, default=3)
    parser.add_argument("--algorithm", action="append",
                        help=f"repeatable; default {', '.join(DEFAULT_ALGORITHMS)}")
    parser.add_argument("--config", default="{}", help="JSON merged into the run config")
    parser.add_argument("--out", help="keep the runs here (default: a temporary directory)")
    parser.add_argument("--checkpoints", type=Path,
                        help="evaluate the checkpoints under this earlier --out instead")
    args = parser.parse_args(argv)
    algorithms = args.algorithm or list(DEFAULT_ALGORITHMS)
    extra = json.loads(args.config)
    with contextlib.ExitStack() as stack:
        out = Path(args.out) if args.out else Path(stack.enter_context(tempfile.TemporaryDirectory()))
        lines = digests(out, args.episodes, args.seed, args.eval_seed, algorithms, extra,
                        args.checkpoints)
        for line in lines + oracle_digests(out, args.seed):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
