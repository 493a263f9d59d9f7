"""Randomized invariant checks for the market and battery layer.

Each fuzzer hammers one contract with seeded random inputs and returns a
report instead of raising, so callers (CLI and tests) decide severity.
Violation counts, not first-failure, make flakiness visible.  Inputs are drawn
in blocks as arrays, and each identity is one array check around the calls under
test: ``clear_trades`` per clearing call, one ``decode_batch`` per battery block,
whose chosen actions the check settles itself, and one ``decode_batch`` per profit
block with ``step`` and ``profit`` per profit call.  Each call's per-station flows
and profits go into one flat list of floats as soon as it returns, so a block keeps
no outcome objects alive.  The checks read only what the market returns: the four
flows of ``clear_trades``, and ``step``'s flows, station profits and total.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (DEFAULT_MULTIPLIERS, ActionGrid, EssParams, PriceQuote, StationAction,
                   StationState, clear_trades, profit, step)

_REL = 1e-9
_CLEARING_BLOCK = 1000  # clearing calls drawn at once
_BATTERY_BLOCK = 200    # battery-fuzzer draws per params and quote
_PROFIT_BLOCK = 100     # profit calls drawn per params


@dataclass
class FuzzReport:
    name: str
    calls: int
    violations: int
    elapsed_s: float
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = (f"{status} {self.name}: {self.calls} calls, "
                f"{self.violations} violations, {self.elapsed_s:.2f}s")
        return "\n  ".join([line, *self.notes[:5]])


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) <= _REL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _padded(flat: list[float], n: np.ndarray | list[int], fields: int, width: int) -> np.ndarray:
    """``flat``, each call's ``fields`` per-station lists end to end, as a
    (fields, calls, width) array; call ``j`` has ``n[j]`` stations.

    Stations past a call's own read zero, for which every identity holds.
    """
    out = np.zeros((len(n), fields, width))
    out[np.broadcast_to((np.arange(width) < np.asarray(n)[:, None])[:, None], out.shape)] = flat
    return out.transpose(1, 0, 2)


def _tally(first: int, calls: dict, stations: dict, notes: list[str], detail=None) -> int:
    """Count the calls that fail any check and note up to five in all.

    ``calls`` maps each identity to a (calls,) failure mask and ``stations`` to a
    (calls, width) one; call ``j`` of the block is call ``first + j`` of the run.
    """
    bad = np.logical_or.reduce([*calls.values(), *(m.any(axis=1) for m in stations.values())])
    for j in np.flatnonzero(bad)[:5 - len(notes)]:
        failed = [name for name, m in calls.items() if m[j]]
        failed += [f"{name} at {i}" for name, m in stations.items() for i in np.flatnonzero(m[j])]
        notes.append(f"call {first + j}: {'; '.join(failed)}" + (detail(j) if detail else ""))
    return int(bad.sum())


def fuzz_clearing(calls: int, seed: int) -> FuzzReport:
    """Conservation and flow-split identities of the proportional clearing.

    Call ``k`` has 1-6 stations; by ``k % 5`` its controls are mixed, all
    charging, all discharging, mixed with one idle station, or mixed.
    """
    rng = np.random.default_rng(seed)
    violations, notes, t0 = 0, [], time.perf_counter()
    for k in range(0, calls, _CLEARING_BLOCK):
        n = rng.integers(1, 7, min(_CLEARING_BLOCK, calls - k))
        controls = rng.uniform(-100.0, 100.0, (n.size, 6))
        mode = (k + np.arange(n.size)) % 5
        controls[mode == 1] = np.abs(controls[mode == 1])     # all charging
        controls[mode == 2] = -np.abs(controls[mode == 2])    # all discharging
        idle = np.flatnonzero(mode == 3)
        controls[idle, rng.integers(n[idle])] = 0.0           # one idle station
        controls[np.arange(6) >= n[:, None]] = 0.0            # padding past n
        flat = []
        for row, m in zip(controls.tolist(), n.tolist()):
            o = clear_trades(row[:m])
            flat += o.matched_buy + o.matched_sell + o.utility_buy + o.utility_sell
        matched_buy, matched_sell, utility_buy, utility_sell = flows = _padded(flat, n, 4, 6)
        buy, sell = np.maximum(controls, 0.0), np.maximum(-controls, 0.0)
        res = flows[2:].sum(axis=2)    # utility buy and sell of each call
        violations += _tally(k, {
            "matched volumes differ": ~_close(matched_buy.sum(axis=1), matched_sell.sum(axis=1)),
            "both sides left residuals": res.min(axis=0) > _REL * np.maximum(1.0, res.max(axis=0)),
        }, {
            "buy split broken": ~_close(matched_buy + utility_buy, buy),
            "sell split broken": ~_close(matched_sell + utility_sell, sell),
            "negative flow": (flows < -_REL).any(axis=0),
        }, notes, lambda j: f" controls={controls[j, :n[j]].tolist()}")
    return FuzzReport("clearing-conservation", calls, violations, time.perf_counter() - t0, notes)


def _random_params(rng: np.random.Generator) -> EssParams:
    cap = float(rng.uniform(50.0, 300.0))
    lo = float(rng.uniform(0.02, 0.2))
    hi = float(rng.uniform(0.8, 1.0))
    beta = float(rng.choice([1.0, 0.99, 0.95]))
    if rng.random() < 0.3:
        return EssParams(capacity_max=cap, soc_min=lo, soc_max=hi, leakage_beta=beta,
                         export_cap=float(rng.uniform(5.0, 80.0)),
                         import_cap=float(rng.uniform(5.0, 80.0)))
    return EssParams(capacity_max=cap, soc_min=lo, soc_max=hi, leakage_beta=beta)


def _random_state(rng: np.random.Generator, params: EssParams, size) -> tuple:
    """Battery, urgent and regular demand, then renewable, each of ``size``."""
    return (rng.uniform(params.capacity_min, params.usable_max, size),
            rng.uniform(0.0, 15.0, size), rng.uniform(0.0, 30.0, size),
            rng.uniform(0.0, 50.0, size))


def _random_quotes(rng: np.random.Generator, size: int) -> list[PriceQuote]:
    return [DEFAULT_MULTIPLIERS.quote(u) for u in rng.uniform(0.03, 0.5, size).tolist()]


def fuzz_battery(calls: int, seed: int) -> FuzzReport:
    """Masked actions keep the battery inside its certified window.

    Each block of ``_BATTERY_BLOCK`` draws, under fresh params, is one
    ``decode_batch`` over one-station rows, each row taking one feasible
    action.  A row with every action masked (urgent demand beyond any
    action's reach) is dropped and not counted as a call.  The check
    recomputes the internal flow and the control interval itself, and a
    call fails when its control leaves that interval or the unclamped next
    battery ``beta * battery + control + flow`` leaves the window.
    """
    rng = np.random.default_rng(seed)
    grid = ActionGrid()
    violations = 0
    notes: list[str] = []
    t0 = time.perf_counter()
    k = 0
    while k < calls:
        params = _random_params(rng)
        rng.random()  # unused; it keeps the rows each seed draws, which tests name
        state = _random_state(rng, params, (min(_BATTERY_BLOCK, calls - k), 1))
        supplies, controls, mask, _ = grid.decode_batch(*state, params)
        keep = mask[:, 0].any(axis=1)
        mask = mask[keep, 0]
        # One feasible action per kept row, uniformly: the pick-th true entry of its mask.
        pick = rng.integers(mask.sum(axis=1))[:, None]
        act = np.flatnonzero(keep), 0, (mask.cumsum(axis=1) > pick).argmax(axis=1)
        battery, _, _, renewable = (a[keep, 0] for a in state)
        supply, control = supplies[act], controls[act]
        lo, hi = params.capacity_min, params.usable_max
        carried = params.leakage_beta * battery
        flow = np.minimum(renewable - supply, hi - carried + params.export_cap)
        lower = np.maximum(lo - carried - flow, -params.export_cap)
        upper = np.minimum(hi - carried - flow, params.import_cap)
        nxt = carried + control + flow
        tol = _REL * max(1.0, hi)
        violations += _tally(k, {
            f"battery outside [{lo}, {hi}]": (nxt < lo - tol) | (nxt > hi + tol),
            "control outside its interval": (control < lower - tol) | (control > upper + tol),
        }, {}, notes, lambda j: f": battery {nxt[j]}, control {control[j]} in "
                                f"[{lower[j]}, {upper[j]}]")
        k += nxt.size
    return FuzzReport("battery-safety", calls, violations,
                      time.perf_counter() - t0, notes)


def fuzz_profit(calls: int, seed: int) -> FuzzReport:
    """Profit identities of ``step``'s settled slots.

    Each station's profit must equal its recomputation from the returned
    flows, supply and prices, and the total the sum of the stations.  The
    internal settlements ``(matched_sell - matched_buy) * trade price`` must
    sum to zero, and so the stations' ``profit`` summed under another trade
    price must equal the total.

    Each block of ``_PROFIT_BLOCK`` calls under fresh params has 2-4 stations a
    call.  One ``decode_batch`` over the block's stations as one-station rows
    gives each its actions; it takes the ``int(u * count)``-th of its ``count``
    feasible ones for a uniform ``u``.  A call with a station with no feasible
    action is dropped, not counted.
    """
    rng = np.random.default_rng(seed)
    grid = ActionGrid()
    k = violations = 0
    notes, t0 = [], time.perf_counter()
    while k < calls:
        params = _random_params(rng)
        n = rng.integers(2, 5, min(_PROFIT_BLOCK, calls - k))
        quotes = _random_quotes(rng, n.size)
        state = _random_state(rng, params, (n.sum(), 1))
        u = rng.random(n.sum())
        supplies, controls, mask, _ = (a[:, 0] for a in grid.decode_batch(*state, params))
        count = mask.sum(axis=1)
        pick = (u * count).astype(int)[:, None]   # each row's pick-th true entry, as int(u * count)
        act = np.arange(n.sum()), (mask.cumsum(axis=1) > pick).argmax(axis=1)
        supply, control, count = supplies[act].tolist(), controls[act].tolist(), count.tolist()
        *fields, renewable = (a[:, 0].tolist() for a in state)
        states = list(map(StationState, *fields))
        ends = np.cumsum(n).tolist()
        flat, totals, kept = [], [], []
        for q, lo, hi in zip(quotes, [0, *ends], ends):
            if 0 in count[lo:hi]:
                continue
            actions = list(map(StationAction, supply[lo:hi], control[lo:hi]))
            out = step(states[lo:hi], actions, renewable[lo:hi], q, [(0.0, 0.0)] * (hi - lo),
                       params)
            alt = profit(supply[lo:hi], out.trade,   # its sum must not move
                         PriceQuote(q.utility, q.ev, 0.85 * q.utility, q.buyback))
            t = out.trade
            flat += (supply[lo:hi] + t.matched_buy + t.matched_sell + t.utility_buy
                     + t.utility_sell + out.station_profit)
            totals += out.total_profit, sum(alt), q.ev, q.utility, q.trade, q.buyback
            kept.append(hi - lo)
        supply, m_buy, m_sell, u_buy, u_sell, got = _padded(flat, kept, 6, 4)
        total, alt_total, *prices = np.array(totals).reshape(-1, 6).T
        ev, utility, trade, buyback = (p[:, None] for p in prices)
        trade_net = (m_sell - m_buy) * trade
        want = supply * ev - u_buy * utility + trade_net + u_sell * buyback
        tol = _REL * np.maximum(1.0, np.abs(total))
        violations += _tally(k, {
            "total != sum of stations": ~_close(total, got.sum(axis=1)),
            "internal trading not zero-sum": np.abs(trade_net.sum(axis=1)) > tol,
            "total profit moved with trade price": np.abs(alt_total - total) > tol,
        }, {
            "station profit mismatch": ~_close(got, want),
        }, notes)
        k += len(kept)
    return FuzzReport("profit-identities", calls, violations, time.perf_counter() - t0, notes)
