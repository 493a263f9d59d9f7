"""Command-line entry point: train, evaluate, oracle, fuzz, compare.

Exit codes: 0 success, 1 configuration or validation error, 2 runtime
divergence or broken invariant, 3 I/O error.

All randomness descends from the run seed: it is split into independent
streams for network initialization, demand sampling, action exploration,
and replay sampling, so a (config, seed) pair fully determines every
artifact except ``timings.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, build_scenario, load_config, load_config_dict, resolved_dict
from .core import InfeasibleActionError
from .data import ScenarioDataError, build_episode, synth_demand
from .fuzz import fuzz_battery, fuzz_clearing, fuzz_profit
from .marl import (
    ALGORITHMS,
    EpisodeMetrics,
    ReplayBuffer,
    build_learner,
    load_learner,
    rollout_episode,
    save_learner,
    train,
)
from .nn import CheckpointError, DivergenceError
from .oracle import brute_force, random_tiny_instance, replay_sequence, rolling_greedy
from .report import (
    read_metrics_csv,
    read_trace_csv,
    replay_trace,
    summarize,
    write_long_csv,
    write_metrics_csv,
    write_summary_csv,
    write_timings_csv,
    write_trace_csv,
)


# Final-episode window of the profit mean that ``train`` prints and ``compare`` aggregates.
FINAL_WINDOW = 50


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    # numpy rejects a negative seed with a traceback; argparse names the flag.
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load(args) -> RunConfig:
    """train's ``--config`` with its ``--algorithm``, ``--seed`` and ``--out`` in place."""
    cfg = load_config(args.config) if args.config else load_config_dict({})
    overrides: dict = {}
    if args.algorithm:
        overrides["algorithms"] = tuple(args.algorithm)
    if args.seed:
        overrides["seeds"] = tuple(args.seed)
    if args.out:
        overrides["out_dir"] = args.out
    return dataclasses.replace(cfg, **overrides)


def _seed_streams(seed: int) -> tuple[np.random.Generator, ...]:
    """(net-init, demand, exploration, replay) generators for one run."""
    children = np.random.SeedSequence([seed]).spawn(4)
    return tuple(np.random.default_rng(c) for c in children)


@contextlib.contextmanager
def _battery_admits_actions():
    """A rollout that finds a station with no feasible action is a config error."""
    try:
        yield
    except InfeasibleActionError as exc:
        raise ConfigError(f"{exc}: ess.capacity_max or ess.import_cap is too small") from exc


def _episode_factory(price, pv, demand, stations, initial_soc, ess, demand_rng):
    horizon = len(price)

    def make():
        arrivals = synth_demand(demand, horizon, stations, rng=demand_rng)
        return build_episode(price, pv, arrivals, initial_soc, ess)

    return make


def cmd_train(args) -> int:
    cfg = _load(args)
    price, pv, demand, stations = build_scenario(cfg)
    out_root = Path(cfg.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    echo = json.dumps(resolved_dict(cfg), indent=2, sort_keys=True)
    (out_root / "resolved_config.json").write_text(echo + "\n")

    for algorithm in cfg.algorithms:
        for seed in cfg.seeds:
            t0 = time.perf_counter()
            rng_init, rng_demand, rng_roll, rng_replay = _seed_streams(seed)
            learner = build_learner(algorithm, stations, cfg.ess, cfg.grid,
                                    cfg.scales, cfg.train, rng_init)
            buffer = ReplayBuffer(cfg.train.capacity, rng_replay)
            factory = _episode_factory(price, pv, demand, stations,
                                       cfg.scenario.initial_soc, cfg.ess, rng_demand)
            with _battery_admits_actions():
                metrics = train(learner, buffer, factory, rng_roll)

            run_dir = out_root / f"{algorithm}_seed{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            write_metrics_csv(run_dir / "metrics.csv", [(algorithm, m) for m in metrics], seed)
            write_timings_csv(run_dir / "timings.csv", metrics)
            save_learner(run_dir / "checkpoint.npz", learner)

            window = min(FINAL_WINDOW, len(metrics))
            tail = metrics[-window:]
            mean_profit = sum(m.total_profit for m in tail) / window
            print(f"{algorithm} seed {seed}: {len(metrics)} episodes in "
                  f"{time.perf_counter() - t0:.1f}s, final-{window} mean profit "
                  f"${mean_profit:.2f} -> {run_dir}")
    return 0


def cmd_evaluate(args) -> int:
    learner = load_learner(args.checkpoint)
    cfg = load_config(args.config) if args.config else load_config_dict({})
    price, pv, demand, stations = build_scenario(cfg)
    if stations != learner.n_agents:
        raise ConfigError(
            f"checkpoint expects {learner.n_agents} stations, scenario has {stations}")
    for field, trained, configured in (("battery", learner.env_params, cfg.ess),
                                       ("grid", learner.grid, cfg.grid),
                                       ("scales", learner.scales, cfg.scales)):
        if configured != trained:
            raise ConfigError(
                f"checkpoint was trained with {field} {trained}, config has {configured}")
    _, rng_demand, _, _ = _seed_streams(args.seed)
    factory = _episode_factory(price, pv, demand, stations,
                               cfg.scenario.initial_soc, cfg.ess, rng_demand)
    episode = factory()
    with _battery_admits_actions():
        record, trace = rollout_episode(episode, learner, epsilon=0.0, rng=None,
                                        collect_trace=True)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_dir / "trace.csv", trace, cfg.ess)
    total = float(record.total_profits.sum())
    stations_profit = record.station_profits.sum(axis=0)
    print(f"greedy episode profit ${total:.2f} "
          f"({', '.join(f'station {i}: ${v:.2f}' for i, v in enumerate(stations_profit))})")
    print(f"trace written to {out_dir / 'trace.csv'}")
    worst = replay_trace(read_trace_csv(out_dir / "trace.csv"), cfg.ess, cfg.scenario.multipliers)
    if worst > 1e-9:
        print(f"ERROR: trace.csv replays with a profit error of {worst:.3e}", file=sys.stderr)
        return 2
    return 0


def cmd_oracle(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    rows = []
    mismatches = 0
    for k in range(args.instances):
        instance = random_tiny_instance(rng)
        result = brute_force(instance)
        lookahead = args.lookahead or instance.episode.length
        greedy_total, greedy_actions = rolling_greedy(instance, lookahead)
        _, oracle_split = replay_sequence(instance, result.actions)
        _, greedy_split = replay_sequence(instance, greedy_actions)
        if lookahead >= instance.episode.length \
                and abs(greedy_total - result.profit) > 1e-9 * max(1.0, abs(result.profit)):
            mismatches += 1
        for name, total, split in (("oracle", result.profit, oracle_split),
                                   (f"greedy-L{lookahead}", greedy_total, greedy_split)):
            rows.append((name, EpisodeMetrics(
                episode=k, total_profit=total, station_profits=split, l_mix=None,
                agent_loss_mean=None, epsilon=None, wall_time_s=None)))
        print(f"instance {k}: optimum ${result.profit:.4f} "
              f"({result.nodes} nodes, {result.wall_time_s:.2f}s), "
              f"greedy-L{lookahead} ${greedy_total:.4f}")

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out_dir / "oracle_metrics.csv", rows, args.seed)
        print(f"wrote {out_dir / 'oracle_metrics.csv'}")

    if mismatches:
        print(f"ERROR: full-lookahead greedy diverged from the optimum on "
              f"{mismatches} instance(s)", file=sys.stderr)
        return 2
    return 0


def cmd_fuzz(args) -> int:
    reports = [
        fuzz_clearing(args.clearing, args.seed),
        fuzz_battery(args.battery, args.seed + 1),
        fuzz_profit(args.profit, args.seed + 2),
    ]
    for rep in reports:
        print(rep)
    return 0 if all(rep.ok for rep in reports) else 2


def _collect_metric_files(paths: list[str]) -> list[Path]:
    """Each metrics file under ``paths`` once, however it is named, in the order first seen."""
    found: dict[Path, Path] = {}  # resolved path -> the path as first named
    for raw in paths:
        p = Path(raw)
        if not p.exists():
            raise ConfigError(f"no such file or directory: {raw}")
        for f in sorted(p.rglob("metrics.csv")) if p.is_dir() else [p]:
            found.setdefault(f.resolve(), f)
    if not found:
        raise ConfigError(f"no metrics.csv found under {', '.join(paths)}")
    return list(found.values())


def cmd_compare(args) -> int:
    """One run per (file, algorithm, seed), in the order first seen."""
    files = _collect_metric_files(args.runs)
    runs = []
    for path in files:
        groups: dict[tuple[str, int], list[dict]] = {}
        try:
            # only the columns compare reads, each checked here, before anything is written
            for r in read_metrics_csv(path):
                if any(c in r["algorithm"] for c in ',"\r\n'):
                    raise ValueError(f"algorithm {r['algorithm']!r} has a comma, quote or CR/LF")
                groups.setdefault((r["algorithm"], r["seed"]), []).append(
                    {"episode": r["episode"], "total_profit": float(r["total_profit"])})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed metrics file {path}: {exc!r}") from None
        runs += [(algorithm, seed, rows) for (algorithm, seed), rows in groups.items()]
    summary = summarize(runs, args.window)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(out_dir / "summary.csv", summary)
    write_long_csv(out_dir / "long.csv", runs)
    print(f"{'algorithm':<18}{'seeds':>6}{'window':>8}{'mean':>12}{'median':>12}{'std':>12}")
    for row in summary:
        print(f"{row.algorithm:<18}{row.seeds:>6}{row.window:>8}"
              f"{row.profit_mean:>12.2f}{row.profit_median:>12.2f}{row.profit_std:>12.2f}")
    print(f"wrote {out_dir / 'summary.csv'} and {out_dir / 'long.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evcoop",
                     description="Cooperative EV-charging microgrid training and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one or more algorithms over the seed list")
    p_train.add_argument("--config", help="JSON config file (omit for all defaults)")
    p_train.add_argument("--seed", type=_nonnegative_int, action="append",
                         help="override config seeds (repeatable)")
    p_train.add_argument("--algorithm", action="append",
                         choices=ALGORITHMS,
                         help="override config algorithms (repeatable)")
    p_train.add_argument("--out", help="override output directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate",
                            help="greedy rollout of a checkpoint; writes trace.csv")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", help="scenario source (defaults to the bundled sample)")
    p_eval.add_argument("--seed", type=_nonnegative_int, default=0,
                        help="demand seed; matches the first training episode of the same seed")
    p_eval.add_argument("--out", help="output directory (default: current)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_oracle = sub.add_parser("oracle",
                              help="enumerate tiny instances: exact optimum vs rolling greedy")
    p_oracle.add_argument("--instances", type=_positive_int, default=10)
    p_oracle.add_argument("--seed", type=_nonnegative_int, default=0)
    p_oracle.add_argument("--lookahead", type=_positive_int,
                          help="greedy lookahead (default: full horizon)")
    p_oracle.add_argument("--out", help="write oracle_metrics.csv here")
    p_oracle.set_defaults(func=cmd_oracle)

    p_fuzz = sub.add_parser("fuzz", help="randomized invariant checks on the market core")
    p_fuzz.add_argument("--clearing", type=_positive_int, default=100_000)
    p_fuzz.add_argument("--battery", type=_positive_int, default=100_000)
    p_fuzz.add_argument("--profit", type=_positive_int, default=10_000)
    p_fuzz.add_argument("--seed", type=_nonnegative_int, default=0)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_cmp = sub.add_parser("compare",
                           help="summarize completed runs into summary.csv + long.csv")
    p_cmp.add_argument("--runs", nargs="+", required=True,
                       help="metrics.csv files or directories to scan")
    p_cmp.add_argument("--window", type=_positive_int, default=FINAL_WINDOW,
                       help="final-episode window for the aggregate (default %(default)s)")
    p_cmp.add_argument("--out", help="output directory (default: current)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ScenarioDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except (OSError, CheckpointError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
