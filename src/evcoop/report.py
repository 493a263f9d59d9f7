"""Metrics/trace CSV emission, reading, summaries, and trace replay.

Numbers are written with ``repr`` so every float round-trips exactly; the
same values therefore always produce byte-identical files.  Wall-clock
timings go to a separate ``timings.csv`` to keep ``metrics.csv`` stable
across reruns of the same seed.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import EssParams, Multipliers, StationAction, StationState, step
from .marl.trainer import STEP_PHASES, EpisodeMetrics, SlotLog


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_metrics_csv(path: str | Path, rows: list[tuple[str, EpisodeMetrics]],
                      seed: int) -> None:
    """One row per ``(algorithm, metrics)`` pair; a None value writes a blank cell."""
    if not rows:
        raise ValueError("no metrics rows to write")
    n_stations = len(rows[0][1].station_profits)
    header = (["episode", "algorithm", "seed", "total_profit"]
              + [f"station_profit_{i}" for i in range(n_stations)]
              + ["l_mix", "agent_loss_mean", "epsilon"])
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for algorithm, m in rows:
            w.writerow([m.episode, algorithm, seed, _fmt(m.total_profit)]
                       + [_fmt(v) for v in m.station_profits]
                       + [_fmt(m.l_mix), _fmt(m.agent_loss_mean), _fmt(m.epsilon)])


TIMINGS_HEADER = ["episode", "wall_time_s", "rollout_s", "train_step_s", *STEP_PHASES, "sync_s"]


def write_timings_csv(path: str | Path, rows: list[EpisodeMetrics]) -> None:
    """Wall-clock seconds per episode: the whole episode, then the phases inside it.

    The train step's own phases follow it; they sum to a little less than it.
    """
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TIMINGS_HEADER)
        for m in rows:
            w.writerow([m.episode] + [_fmt(getattr(m, name)) for name in TIMINGS_HEADER[1:]])


def read_metrics_csv(path: str | Path) -> list[dict]:
    """Rows as dicts; numeric fields parsed, blanks back to None."""
    out = []
    with Path(path).open(newline="") as fh:
        for raw in csv.DictReader(fh):
            row: dict = {}
            for key, value in raw.items():
                if key in ("episode", "seed"):
                    row[key] = int(value)
                elif key == "algorithm":
                    row[key] = value
                else:
                    row[key] = None if value == "" else float(value)
            out.append(row)
    if not out:
        raise ValueError(f"{path}: no metrics rows")
    return out


TRACE_HEADER = ["slot", "station", "xi_u", "renewable", "urgent", "regular",
                "ev_supply", "ess_control", "matched_buy", "matched_sell",
                "utility_buy", "utility_sell", "battery", "soc", "profit",
                "curtailed"]


def write_trace_csv(path: str | Path, trace: list[SlotLog], params: EssParams) -> None:
    """Per-slot, per-station environment log; start-of-slot state columns.

    The file is built as one string and written at once, with the bytes
    ``csv.writer`` would write: no cell (an int or a float's ``repr``) needs
    quoting, and every row ends in ``\r\n``.
    """
    lines = [",".join(TRACE_HEADER)]
    capacity = params.capacity_max
    for t, log in enumerate(trace):
        trade, outcome = log.outcome.trade, log.outcome
        slot = f"{t},"
        price = f",{float(log.quote.utility)!r},"
        for i, (state, action) in enumerate(zip(log.states, log.actions, strict=True)):
            lines.append(slot + str(i) + price + ",".join(map(repr, map(float, (
                log.renewables[i], state.urgent_demand, state.regular_demand,
                action.ev_supply, action.ess_control,
                trade.matched_buy[i], trade.matched_sell[i],
                trade.utility_buy[i], trade.utility_sell[i],
                state.battery_kwh, state.battery_kwh / capacity,
                outcome.profit.station_profit[i], outcome.curtailed_kwh[i])))))
    lines.append("")
    Path(path).write_bytes("\r\n".join(lines).encode())


def read_trace_csv(path: str | Path) -> list[dict]:
    out = []
    with Path(path).open(newline="") as fh:
        for raw in csv.DictReader(fh):
            row = {k: (int(v) if k in ("slot", "station") else float(v))
                   for k, v in raw.items()}
            out.append(row)
    if not out:
        raise ValueError(f"{path}: no trace rows")
    return out


def replay_trace(rows: list[dict], params: EssParams, multipliers: Multipliers) -> float:
    """Re-run each slot of a trace through the environment.

    Returns the maximum absolute discrepancy between recomputed and recorded
    station profits.  States are taken from the rows, so slots are verified
    independently.
    """
    by_slot: dict[int, list[dict]] = {}
    for row in rows:
        by_slot.setdefault(row["slot"], []).append(row)
    worst = 0.0
    for slot in sorted(by_slot):
        group = sorted(by_slot[slot], key=lambda r: r["station"])
        quote = multipliers.quote(group[0]["xi_u"])
        states = [StationState(battery_kwh=r["battery"], urgent_demand=r["urgent"],
                               regular_demand=r["regular"]) for r in group]
        actions = [StationAction(ev_supply=r["ev_supply"], ess_control=r["ess_control"])
                   for r in group]
        renewables = [r["renewable"] for r in group]
        out = step(states, actions, renewables, quote,
                   [(0.0, 0.0)] * len(group), params)
        for i, row in enumerate(group):
            worst = max(worst, abs(out.profit.station_profit[i] - row["profit"]))
    return worst


@dataclass
class SummaryRow:
    algorithm: str
    seeds: int
    window: int
    profit_mean: float
    profit_median: float
    profit_std: float


def summarize(runs: list[tuple[str, int, list[dict]]], window: int) -> list[SummaryRow]:
    """Final-window profit per seed, aggregated per algorithm across seeds."""
    if not runs:
        raise ValueError("no completed runs to summarize")
    if window < 1:
        raise ValueError("window must be >= 1")
    per_algorithm: dict[str, list[float]] = {}
    for algorithm, _seed, rows in runs:
        tail = rows[-window:]
        mean_profit = sum(r["total_profit"] for r in tail) / len(tail)
        per_algorithm.setdefault(algorithm, []).append(mean_profit)
    out = []
    for algorithm in sorted(per_algorithm):
        values = per_algorithm[algorithm]
        out.append(SummaryRow(
            algorithm=algorithm,
            seeds=len(values),
            window=window,
            profit_mean=statistics.fmean(values),
            profit_median=statistics.median(values),
            profit_std=statistics.stdev(values) if len(values) > 1 else 0.0,
        ))
    return out


def write_summary_csv(path: str | Path, rows: list[SummaryRow]) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algorithm", "seeds", "window", "profit_mean",
                    "profit_median", "profit_std"])
        for r in rows:
            w.writerow([r.algorithm, r.seeds, r.window, _fmt(r.profit_mean),
                        _fmt(r.profit_median), _fmt(r.profit_std)])


def write_long_csv(path: str | Path, runs: list[tuple[str, int, list[dict]]]) -> None:
    """Per-episode long format for external plotting."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algorithm", "seed", "episode", "total_profit"])
        for algorithm, seed, rows in runs:
            for r in rows:
                w.writerow([algorithm, seed, r["episode"], _fmt(r["total_profit"])])
