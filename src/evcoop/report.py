"""Metrics/trace CSV emission, reading, summaries, and trace replay.

Every CSV goes through ``write_csv`` and back through ``read_csv``.  Numbers
are written with ``repr`` so every float round-trips exactly; the same
values therefore always produce byte-identical files.  Wall-clock timings
go to a separate ``timings.csv`` to keep ``metrics.csv`` stable across
reruns of the same seed.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import EssParams, Multipliers, SlotLog, StationAction, StationState, step
from .marl.trainer import STEP_PHASES, EpisodeMetrics


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_line(cells) -> str:
    """One row of cells as ``write_csv`` takes it: a float as its ``repr``, None blank."""
    return ",".join(map(_fmt, cells))


def write_csv(path: str | Path, header: list[str], lines: list[str]) -> None:
    """The header row, then ``lines``, each ended by ``\r\n``, in one write.

    Each line is a row ``csv_line`` formatted, or built the same way.  No
    cell is quoted, so none may hold a comma, a double quote or a line
    break; for such cells these are the bytes of the ``csv`` module's writer.
    """
    Path(path).write_bytes("\r\n".join([",".join(header), *lines, ""]).encode())


def _float_or_none(value: str) -> float | None:
    return None if value == "" else float(value)


def read_csv(path: str | Path, parsers: dict) -> list[dict]:
    """The rows of a ``write_csv`` file as dicts.

    A column named in ``parsers`` is parsed by its function, any other as a
    float, a blank cell as None.
    """
    with Path(path).open(newline="") as fh:
        out = [{key: parsers.get(key, _float_or_none)(value) for key, value in raw.items()}
               for raw in csv.DictReader(fh)]
    if not out:
        raise ValueError(f"{path}: no rows")
    return out


def write_metrics_csv(path: str | Path, rows: list[tuple[str, EpisodeMetrics]],
                      seed: int) -> None:
    """One row per ``(algorithm, metrics)`` pair; a None value writes a blank cell."""
    if not rows:
        raise ValueError("no metrics rows to write")
    n_stations = len(rows[0][1].station_profits)
    header = (["episode", "algorithm", "seed", "total_profit"]
              + [f"station_profit_{i}" for i in range(n_stations)]
              + ["l_mix", "agent_loss_mean", "epsilon"])
    write_csv(path, header, [csv_line([m.episode, algorithm, seed, m.total_profit,
                                       *m.station_profits, m.l_mix, m.agent_loss_mean, m.epsilon])
                             for algorithm, m in rows])


TIMINGS_HEADER = ["episode", "wall_time_s", "rollout_s", "train_step_s", *STEP_PHASES, "sync_s"]


def write_timings_csv(path: str | Path, rows: list[EpisodeMetrics]) -> None:
    """Wall-clock seconds per episode: the whole episode, then the phases inside it.

    The train step's own phases follow it; they sum to a little less than it.
    """
    write_csv(path, TIMINGS_HEADER,
              [csv_line(getattr(m, name) for name in TIMINGS_HEADER) for m in rows])


def read_metrics_csv(path: str | Path) -> list[dict]:
    """Rows as dicts; numeric fields parsed, blanks back to None."""
    return read_csv(path, {"episode": int, "seed": int, "algorithm": str})


TRACE_HEADER = ["slot", "station", "xi_u", "renewable", "urgent", "regular",
                "ev_supply", "ess_control", "matched_buy", "matched_sell",
                "utility_buy", "utility_sell", "battery", "soc", "profit",
                "curtailed"]


def write_trace_csv(path: str | Path, trace: list[SlotLog], params: EssParams) -> None:
    """Per-slot, per-station environment log; start-of-slot state columns.

    Its rows hold only ints and floats, so each line is built with ``repr``
    inline, which is faster than ``csv_line``.
    """
    lines = []
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
                outcome.station_profit[i], outcome.curtailed_kwh[i])))))
    write_csv(path, TRACE_HEADER, lines)


def read_trace_csv(path: str | Path) -> list[dict]:
    return read_csv(path, {"slot": int, "station": int})


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
            worst = max(worst, abs(out.station_profit[i] - row["profit"]))
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
    write_csv(path, ["algorithm", "seeds", "window", "profit_mean", "profit_median", "profit_std"],
              [csv_line([r.algorithm, r.seeds, r.window, r.profit_mean, r.profit_median,
                         r.profit_std]) for r in rows])


def write_long_csv(path: str | Path, runs: list[tuple[str, int, list[dict]]]) -> None:
    """Per-episode long format for external plotting."""
    write_csv(path, ["algorithm", "seed", "episode", "total_profit"],
              [csv_line([algorithm, seed, r["episode"], r["total_profit"]])
               for algorithm, seed, rows in runs for r in rows])
