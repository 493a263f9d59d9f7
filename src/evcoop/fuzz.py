"""Randomized invariant checks for the market and battery layer.

Each fuzzer hammers one contract with seeded random inputs and returns a
report instead of raising, so callers (CLI and tests) decide severity.
Violation counts, not first-failure, make flakiness visible.  The battery
check runs in blocks of 200 draws per parameter set on ``decode_batch`` and
``step_batch``; the profit check keeps the scalar ``decode_table`` and
``step`` fuzzed, and tests/test_batch.py pins the two paths together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    EssParams,
    Multipliers,
    PriceQuote,
    StationAction,
    StationState,
    clear_trades,
    profit,
    step,
    step_batch,
)
from .marl.encoding import ActionGrid, InfeasibleActionError

_REL = 1e-9
_BLOCK = 200      # battery-fuzzer draws per params and quote
_MULTIPLIERS = Multipliers()


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


def _close(a: float, b: float, rel: float = _REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def fuzz_clearing(calls: int, seed: int) -> FuzzReport:
    """Conservation and flow-split identities of the proportional clearing."""
    rng = np.random.default_rng(seed)
    violations = 0
    notes: list[str] = []
    t0 = time.perf_counter()
    for k in range(calls):
        n = int(rng.integers(1, 7))
        controls = rng.uniform(-100.0, 100.0, size=n)
        mode = k % 5
        if mode == 1:
            controls = np.abs(controls)        # all charging
        elif mode == 2:
            controls = -np.abs(controls)       # all discharging
        elif mode == 3:
            controls[rng.integers(n)] = 0.0    # idle stations present
        values = controls.tolist()
        out = clear_trades(values)

        # The checks run on plain floats: numpy calls on 1-6 elements cost
        # more than the clearing they check.
        bad = []
        if not _close(sum(out.matched_buy), sum(out.matched_sell)):
            bad.append("matched volumes differ")
        tot_ubuy = sum(out.utility_buy)
        tot_usell = sum(out.utility_sell)
        if min(tot_ubuy, tot_usell) > _REL * max(1.0, tot_ubuy, tot_usell):
            bad.append("both sides left residuals")
        charge = discharge = 0.0
        for i, c in enumerate(values):
            buy_i = c if c > 0.0 else 0.0
            sell_i = -c if c < 0.0 else 0.0
            charge += buy_i
            discharge += sell_i
            if not _close(out.matched_buy[i] + out.utility_buy[i], buy_i):
                bad.append(f"buy split broken at {i}")
            if not _close(out.matched_sell[i] + out.utility_sell[i], sell_i):
                bad.append(f"sell split broken at {i}")
            for v in (out.matched_buy[i], out.matched_sell[i],
                      out.utility_buy[i], out.utility_sell[i]):
                if v < -_REL:
                    bad.append(f"negative flow at {i}")
        if not _close(out.charge_total, charge):
            bad.append("charge_total wrong")
        if not _close(out.discharge_total, discharge):
            bad.append("discharge_total wrong")
        if bad:
            violations += 1
            if len(notes) < 5:
                notes.append(f"call {k}: {'; '.join(bad)} controls={values}")
    return FuzzReport("clearing-conservation", calls, violations,
                      time.perf_counter() - t0, notes)


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


def _random_state(rng: np.random.Generator, params: EssParams, size=None) -> tuple:
    """Battery, urgent and regular demand, then renewable, each of ``size``."""
    return (rng.uniform(params.capacity_min, params.usable_max, size),
            rng.uniform(0.0, 15.0, size), rng.uniform(0.0, 30.0, size),
            rng.uniform(0.0, 50.0, size))


def _random_quote(rng: np.random.Generator) -> PriceQuote:
    return _MULTIPLIERS.quote(float(rng.uniform(0.03, 0.5)))


def fuzz_battery(calls: int, seed: int) -> FuzzReport:
    """Masked actions keep the battery inside its certified window.

    Each block of ``_BLOCK`` draws, under fresh params and quote, is one
    ``decode_batch`` and one ``step_batch`` over one-station rows.  A row with
    every action masked (urgent demand beyond any action's reach) is dropped
    and not counted as a call.  ``step_batch`` clamps the next battery onto
    the window, so the test is on the unclamped ``beta * battery + control + flow``.
    """
    rng = np.random.default_rng(seed)
    grid = ActionGrid()
    violations = 0
    notes: list[str] = []
    t0 = time.perf_counter()
    k = 0
    while k < calls:
        params = _random_params(rng)
        quote = _random_quote(rng)
        state = _random_state(rng, params, (min(_BLOCK, calls - k), 1))
        supplies, controls, mask = grid.decode_batch(*state, params)
        keep = mask[:, 0].any(axis=1)
        mask = mask[keep, 0]
        # One feasible action per kept row, uniformly: the pick-th true entry of its mask.
        pick = rng.integers(mask.sum(axis=1))[:, None]
        act = np.flatnonzero(keep), 0, (mask.cumsum(axis=1) > pick).argmax(axis=1)
        battery, urgent, regular, renewable = (a[keep] for a in state)
        supply, control = supplies[act][:, None], controls[act][:, None]
        step_batch(battery, urgent, regular, supply, control, renewable, quote, [(0.0, 0.0)],
                   params)
        lo, hi = params.capacity_min, params.usable_max
        carried = params.leakage_beta * battery
        flow = np.minimum(renewable - supply, hi - carried + params.export_cap)
        nxt = (carried + control + flow)[:, 0]
        tol = _REL * max(1.0, hi)
        bad = np.flatnonzero((nxt < lo - tol) | (nxt > hi + tol))
        violations += bad.size
        notes += [f"call {k + j}: battery {nxt[j]} outside [{lo}, {hi}]"
                  for j in bad[:5 - len(notes)]]
        k += nxt.size
    return FuzzReport("battery-safety", calls, violations,
                      time.perf_counter() - t0, notes)


def fuzz_profit(calls: int, seed: int) -> FuzzReport:
    """Profit identities: recomputation, zero-sum trading, trade-price invariance."""
    rng = np.random.default_rng(seed)
    grid = ActionGrid()
    violations = 0
    notes: list[str] = []
    t0 = time.perf_counter()
    params = _random_params(rng)
    k = 0
    while k < calls:
        n = int(rng.integers(2, 5))
        quote = _random_quote(rng)
        states, actions, renewables = [], [], []
        try:
            for _ in range(n):
                battery, urgent, regular, rn = _random_state(rng, params)
                st = StationState(battery, urgent, regular)
                supplies, controls, mask = grid.decode_table(st, rn, params)
                feas = np.flatnonzero(mask)
                idx = int(feas[rng.integers(feas.size)])
                states.append(st)
                renewables.append(rn)
                actions.append(StationAction(supplies.item(idx), controls.item(idx)))
        except InfeasibleActionError:
            # A station with no feasible action: nothing to check, redraw.
            params = _random_params(rng)
            continue
        out = step(states, actions, renewables, quote, [(0.0, 0.0)] * n, params)
        br = out.profit
        bad = []
        for i in range(n):
            ev_inc = actions[i].ev_supply * quote.ev
            ucost = out.trade.utility_buy[i] * quote.utility
            tnet = (out.trade.matched_sell[i] - out.trade.matched_buy[i]) * quote.trade
            back = out.trade.utility_sell[i] * quote.buyback
            station = ev_inc - ucost + tnet + back
            if not _close(br.ev_income[i], ev_inc) or not _close(br.utility_cost[i], ucost) \
                    or not _close(br.trade_net[i], tnet) or not _close(br.buyback_income[i], back) \
                    or not _close(br.station_profit[i], station):
                bad.append(f"breakdown mismatch at {i}")
        if not _close(br.total_profit, sum(br.station_profit)):
            bad.append("total != sum of stations")
        if abs(sum(br.trade_net)) > _REL * max(1.0, abs(br.total_profit)):
            bad.append("internal trading not zero-sum")
        # moving the internal trade price must not move total profit
        alt = replace(quote, trade=0.85 * quote.utility)
        alt_break = profit([a.ev_supply for a in actions], out.trade, alt)
        if abs(alt_break.total_profit - br.total_profit) > _REL * max(1.0, abs(br.total_profit)):
            bad.append("total profit moved with trade price")
        if bad:
            violations += 1
            if len(notes) < 5:
                notes.append(f"call {k}: {'; '.join(bad)}")
        k += 1
        if k % 100 == 0:
            params = _random_params(rng)
    return FuzzReport("profit-identities", calls, violations,
                      time.perf_counter() - t0, notes)
