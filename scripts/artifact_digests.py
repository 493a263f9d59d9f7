#!/usr/bin/env python3
"""Train, evaluate, run the oracle and print the sha256 of every deterministic artifact.

Trains each algorithm for ``--episodes`` episodes at ``--seed``, evaluates
each checkpoint with ``evcoop evaluate --seed <eval-seed>``, then does the
same again under ``mixer_grad`` (``{"train": {"agent_loss_mode":
"mixer_grad"}}``, the mode in which the mixer's gradient reaches the
agents), writing that variant's runs under ``mixer_grad/``.  Each
variant's training runs are summarized with ``evcoop compare``, and its
``summary.csv`` and ``long.csv`` are digested, and so is the
``resolved_config.json`` its last training run echoed.  It runs
``evcoop oracle --instances 20 --seed <seed>`` with full lookahead and with
``--lookahead 1``, and prints one ``<sha256>  <path>`` line per
``metrics.csv``, ``trace.csv`` and ``oracle_metrics.csv``.
Next to each ``oracle_metrics.csv`` it writes and digests ``oracle_api.txt``:
for each of the same instances, the optimum, its action sequence and node
count from ``brute_force`` and the total and sequence of ``rolling_greedy``
at that lookahead, which the profit-only CSV does not pin.  Each
``checkpoint.npz`` gets two lines, ``<path> params`` over its parameter
arrays and ``<path> meta`` over its format version and metadata JSON, so a
metadata-only change does not look like a numeric one.  It runs the
three fuzzers as ``evcoop fuzz --seed <seed>`` does and writes and digests
``fuzz/fuzz_summary.txt``: each report's name, calls, violations and notes,
without its timing.
Run it at two commits and diff the outputs to check that a change keeps
every artifact byte-identical:

    python3 scripts/artifact_digests.py --out /tmp/a > a.txt
    python3 scripts/artifact_digests.py --out /tmp/b --checkpoints /tmp/a > b.txt
    diff a.txt b.txt

``--checkpoints`` evaluates the checkpoints an earlier run wrote instead of
this run's own, so the second run above also checks that the new code reads
the old checkpoints the same way; the ``mixer_grad`` variant reads its
checkpoints from ``mixer_grad/`` under that directory.  ``--config`` merges
extra JSON into the run config of both variants (say
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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from evcoop.cli import main as evcoop  # noqa: E402
from evcoop.fuzz import fuzz_battery, fuzz_clearing, fuzz_profit  # noqa: E402
from evcoop.oracle import brute_force, random_tiny_instance, rolling_greedy  # noqa: E402

DEFAULT_ALGORITHMS = ("double_qmix", "qmix", "independent_dqn", "random")
# (subdirectory, config merged into the run config) of each training variant
VARIANTS = (("", {}), ("mixer_grad", {"train": {"agent_loss_mode": "mixer_grad"}}))
ORACLE_INSTANCES = 20
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
        lines = [line for variant, config in VARIANTS
                 for line in digests(out, variant, args.episodes, args.seed, args.eval_seed,
                                     algorithms, _merge(config, extra), args.checkpoints)]
        for line in lines + oracle_digests(out, args.seed) + fuzz_digests(out, args.seed):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
