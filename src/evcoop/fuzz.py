"""Randomized invariant checks for the market and battery layer.

Each fuzzer hammers one contract with seeded random inputs and returns a
report instead of raising, so callers (CLI and tests) decide severity.
Violation counts, not first-failure, make flakiness visible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EssParams,
    PriceQuote,
    StationAction,
    StationState,
    clear_trades,
    profit,
    step,
)
from .marl.encoding import ActionGrid, InfeasibleActionError

_REL = 1e-9


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
        for note in self.notes[:5]:
            line += f"\n  {note}"
        return line


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
        out = clear_trades(list(controls))

        bad = []
        if not _close(sum(out.matched_buy), sum(out.matched_sell)):
            bad.append("matched volumes differ")
        tot_ubuy = sum(out.utility_buy)
        tot_usell = sum(out.utility_sell)
        if min(tot_ubuy, tot_usell) > _REL * max(1.0, tot_ubuy, tot_usell):
            bad.append("both sides left residuals")
        for i, c in enumerate(controls):
            buy_i = max(c, 0.0)
            sell_i = max(-c, 0.0)
            if not _close(out.matched_buy[i] + out.utility_buy[i], buy_i):
                bad.append(f"buy split broken at {i}")
            if not _close(out.matched_sell[i] + out.utility_sell[i], sell_i):
                bad.append(f"sell split broken at {i}")
            for v in (out.matched_buy[i], out.matched_sell[i],
                      out.utility_buy[i], out.utility_sell[i]):
                if v < -_REL:
                    bad.append(f"negative flow at {i}")
        if not _close(out.charge_total, float(np.sum(np.maximum(controls, 0.0)))):
            bad.append("charge_total wrong")
        if not _close(out.discharge_total, float(np.sum(np.maximum(-controls, 0.0)))):
            bad.append("discharge_total wrong")
        if bad:
            violations += 1
            if len(notes) < 5:
                notes.append(f"call {k}: {'; '.join(bad)} controls={controls.tolist()}")
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


def _random_state(rng: np.random.Generator, params: EssParams) -> StationState:
    return StationState(
        battery_kwh=float(rng.uniform(params.capacity_min, params.usable_max)),
        urgent_demand=float(rng.uniform(0.0, 15.0)),
        regular_demand=float(rng.uniform(0.0, 30.0)),
    )


def _random_quote(rng: np.random.Generator) -> PriceQuote:
    u = float(rng.uniform(0.03, 0.5))
    return PriceQuote(utility=u, ev=1.2 * u, trade=0.9 * u, buyback=0.8 * u)


def fuzz_battery(calls: int, seed: int) -> FuzzReport:
    """Masked actions keep the battery inside its certified window."""
    rng = np.random.default_rng(seed)
    grid = ActionGrid()
    violations = 0
    notes: list[str] = []
    t0 = time.perf_counter()
    params = _random_params(rng)
    quote = _random_quote(rng)
    k = 0
    while k < calls:
        state = _random_state(rng, params)
        renewable = float(rng.uniform(0.0, 50.0))
        try:
            supplies, controls, mask = grid.decode_table(state, renewable, params)
        except InfeasibleActionError:
            # Urgent demand beyond any action's reach: nothing to mask, redraw.
            params = _random_params(rng)
            quote = _random_quote(rng)
            continue
        feas = np.flatnonzero(mask)
        idx = int(feas[rng.integers(feas.size)])
        action = StationAction(ev_supply=supplies[idx], ess_control=controls[idx])
        out = step([state], [action], [renewable], quote, [(0.0, 0.0)], params)
        nxt = out.next_states[0].battery_kwh
        lo = params.capacity_min
        hi = params.soc_max * params.capacity_max
        if nxt < lo - _REL * max(1.0, hi) or nxt > hi + _REL * max(1.0, hi):
            violations += 1
            if len(notes) < 5:
                notes.append(f"call {k}: battery {nxt} outside [{lo}, {hi}]")
        k += 1
        if k % 200 == 0:
            params = _random_params(rng)
            quote = _random_quote(rng)
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
    for k in range(calls):
        n = int(rng.integers(2, 5))
        if k and k % 100 == 0:
            params = _random_params(rng)
        u = float(rng.uniform(0.03, 0.5))
        quote = PriceQuote(utility=u, ev=1.2 * u, trade=0.9 * u, buyback=0.8 * u)
        states, actions, renewables = [], [], []
        try:
            for _ in range(n):
                st = _random_state(rng, params)
                rn = float(rng.uniform(0.0, 50.0))
                supplies, controls, mask = grid.decode_table(st, rn, params)
                feas = np.flatnonzero(mask)
                idx = int(feas[rng.integers(feas.size)])
                states.append(st)
                renewables.append(rn)
                actions.append(StationAction(supplies[idx], controls[idx]))
        except ValueError:
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
        alt = PriceQuote(utility=u, ev=1.2 * u, trade=0.85 * u, buyback=0.8 * u)
        alt_break = profit([a.ev_supply for a in actions], out.trade, alt)
        if abs(alt_break.total_profit - br.total_profit) > _REL * max(1.0, abs(br.total_profit)):
            bad.append("total profit moved with trade price")
        if bad:
            violations += 1
            if len(notes) < 5:
                notes.append(f"call {k}: {'; '.join(bad)}")
    return FuzzReport("profit-identities", calls, violations,
                      time.perf_counter() - t0, notes)
