"""Per-slot dynamics of an EV charging station microgrid.

Each station serves EV demand (split into an urgent part that must be met
this slot and a deferrable regular part), owns a battery with leakage, and
may charge or discharge it.  Discharged energy is first matched against
other stations' charging requests by a coordinator (proportional clearing);
residuals are bought from or sold back to the utility.  All functions here
are pure: they take values and return values, no hidden state.

Sign convention for ``ess_control``: positive means charging (energy bought
from the market/utility), negative means discharging (energy sold).  The
internal flow ``renewable - ev_supply`` charges or drains the battery
implicitly and is not traded.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class ConstraintViolation(ValueError):
    """An action or state breaks a physical bound; message names station and bound."""


class InfeasibleIntervalError(ConstraintViolation):
    """Charge/discharge interval is empty: the caps are too tight for curtailment to help."""


class PriceOrderingError(ValueError):
    """Quote violates buyback < trade < utility < ev."""


# Tolerance for bound checks; discretized actions sit exactly on computed
# bounds up to float rounding.
_TOL = 1e-9


@dataclass(frozen=True)
class EssParams:
    """Battery parameters for one station.

    ``capacity_min`` is derived as ``soc_min * capacity_max``.  The export
    and import caps bound how much a station may sell or buy in one slot;
    they default to ten times the battery capacity, which is effectively
    unbounded at the scales simulated here, but they make the curtailment
    rule well defined.
    """

    capacity_max: float = 200.0
    soc_min: float = 0.05
    soc_max: float = 0.95
    leakage_beta: float = 0.99
    export_cap: float | None = None
    import_cap: float | None = None

    def __post_init__(self) -> None:
        if self.export_cap is None:
            object.__setattr__(self, "export_cap", 10.0 * self.capacity_max)
        if self.import_cap is None:
            object.__setattr__(self, "import_cap", 10.0 * self.capacity_max)
        # After the defaults, so a capacity whose default caps overflow fails too.
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (0.0 < self.soc_min < self.soc_max <= 1.0):
            raise ValueError(f"need 0 < soc_min < soc_max <= 1, got {self.soc_min}, {self.soc_max}")
        if not (0.0 < self.leakage_beta <= 1.0):
            raise ValueError(f"leakage_beta must be in (0, 1], got {self.leakage_beta}")
        if self.capacity_max <= 0.0:
            raise ValueError(f"capacity_max must be positive, got {self.capacity_max}")
        if self.export_cap <= 0.0 or self.import_cap <= 0.0:
            raise ValueError("export_cap and import_cap must be positive")

    @property
    def capacity_min(self) -> float:
        return self.soc_min * self.capacity_max

    @property
    def usable_max(self) -> float:
        """Highest admissible battery level in kWh."""
        return self.soc_max * self.capacity_max


@dataclass(frozen=True)
class StationState:
    """Snapshot of one station at the start of a slot."""

    battery_kwh: float
    urgent_demand: float
    regular_demand: float

    def __post_init__(self) -> None:
        if self.urgent_demand < 0.0 or self.regular_demand < 0.0:
            raise ValueError(f"demand must be nonnegative, got {self.urgent_demand}, {self.regular_demand}")

    @property
    def total_demand(self) -> float:
        return self.urgent_demand + self.regular_demand


@dataclass(frozen=True)
class PriceQuote:
    """The four linked prices ($/kWh) for one slot.

    Ordering buyback < trade < utility < ev is enforced: selling back to the
    utility is the worst outlet, internal trading beats the utility on both
    sides, and serving EVs pays best.
    """

    utility: float
    ev: float
    trade: float
    buyback: float

    def __post_init__(self) -> None:
        if self.buyback <= 0.0:
            raise PriceOrderingError(f"prices must be positive, got buyback={self.buyback}")
        if not (self.buyback < self.trade < self.utility < self.ev):
            raise PriceOrderingError(
                f"price ordering violated: need buyback < trade < utility < ev, "
                f"got ({self.buyback}, {self.trade}, {self.utility}, {self.ev})"
            )


@dataclass(frozen=True)
class Multipliers:
    """Fixed factors that derive a slot's EV, trade and buyback prices from its utility price."""

    ev: float = 1.2
    trade: float = 0.9
    buyback: float = 0.8

    def __post_init__(self) -> None:
        if not (0.0 < self.buyback < self.trade < 1.0 < self.ev):
            raise PriceOrderingError(
                f"need 0 < buyback < trade < 1 < ev, "
                f"got buyback={self.buyback}, trade={self.trade}, ev={self.ev}")

    def quote(self, utility: float) -> PriceQuote:
        return PriceQuote(utility=utility, ev=self.ev * utility, trade=self.trade * utility,
                          buyback=self.buyback * utility)


DEFAULT_MULTIPLIERS = Multipliers()


@dataclass(frozen=True)
class StationAction:
    """One station's decision for a slot: EV energy served and battery control."""

    ev_supply: float
    ess_control: float


@dataclass
class TradeOutcome:
    """Cleared internal matches plus residual utility flows, per station.

    For every station at most one of (matched_buy, matched_sell) and at most
    one of (utility_buy, utility_sell) is nonzero, and
    ``matched_buy + utility_buy == max(control, 0)``,
    ``matched_sell + utility_sell == max(-control, 0)``.
    """

    matched_buy: list[float]
    matched_sell: list[float]
    utility_buy: list[float]
    utility_sell: list[float]
    charge_total: float
    discharge_total: float


@dataclass
class ProfitBreakdown:
    """Per-station profit components ($) for one slot and their total."""

    ev_income: list[float]
    utility_cost: list[float]
    trade_net: list[float]
    buyback_income: list[float]
    station_profit: list[float]
    total_profit: float


@dataclass
class StepOutcome:
    """Everything produced by advancing all stations one slot."""

    next_states: list[StationState]
    trade: TradeOutcome
    profit: ProfitBreakdown
    curtailed_kwh: list[float]


def soc(state: StationState, params: EssParams) -> float:
    """State of charge: battery level divided by maximum capacity."""
    return state.battery_kwh / params.capacity_max


def control_intervals(battery: float, renewable: float, supplies: Sequence[float],
                      params: EssParams) -> list[tuple[float, float, float, float]]:
    """``(internal_flow, curtailed, lower, upper)`` of one station for each EV supply.

    The raw internal flow ``renewable - supply`` is capped at the battery
    headroom plus the export cap, so the control interval stays nonempty; a
    deficit (negative raw flow) is never curtailed.  The battery after the
    slot is ``beta * battery + control + internal_flow`` and must land in
    ``[capacity_min, usable_max]``, and the per-slot export/import caps
    clamp the interval.  A float-thin inversion collapses onto ``lower``;
    an empty interval, possible only under caps too tight for curtailment
    to help, comes back with ``lower > upper``.  The battery terms are
    computed once for all supplies.
    """
    carried = params.leakage_beta * battery
    base_lower = params.capacity_min - carried
    base_upper = params.usable_max - carried
    headroom = base_upper + params.export_cap
    floor, ceiling = -params.export_cap, params.import_cap
    out = []
    for supply in supplies:
        if renewable < 0.0 or supply < 0.0:
            raise ValueError(
                f"renewable and ev_supply must be nonnegative, got {renewable}, {supply}")
        raw = renewable - supply
        flow, cut = (raw, 0.0) if raw <= headroom else (headroom, raw - headroom)
        lower = base_lower - flow
        upper = base_upper - flow
        if lower < floor:
            lower = floor
        if upper > ceiling:
            upper = ceiling
        if upper < lower <= upper + _TOL:
            upper = lower
        out.append((flow, cut, lower, upper))
    return out


def clear_trades(ess_controls: list[float]) -> TradeOutcome:
    """Coordinator clearing of one slot's charge/discharge controls.

    The short side of the internal market is matched in full; the long side
    is matched proportionally to each station's control, with the remainder
    routed to the utility.  When either aggregate is zero the proportional
    ratio is defined as zero and everything routes to the utility.
    """
    n = len(ess_controls)
    if n < 1:
        raise ValueError("need at least one station")
    charge_total = 0.0
    discharge_total = 0.0
    for c in ess_controls:
        if c > 0.0:
            charge_total += c
        else:
            discharge_total += -c

    matched_buy = [0.0] * n
    matched_sell = [0.0] * n
    utility_buy = [0.0] * n
    utility_sell = [0.0] * n

    if charge_total > discharge_total:
        # Sellers fully matched, buyers matched pro rata.
        ratio = discharge_total / charge_total if charge_total > 0.0 else 0.0
        for i, c in enumerate(ess_controls):
            if c > 0.0:
                matched_buy[i] = ratio * c
                utility_buy[i] = c - matched_buy[i]
            elif c < 0.0:
                matched_sell[i] = -c
    else:
        # Buyers fully matched, sellers matched pro rata.
        ratio = charge_total / discharge_total if discharge_total > 0.0 else 0.0
        for i, c in enumerate(ess_controls):
            if c > 0.0:
                matched_buy[i] = c
            elif c < 0.0:
                matched_sell[i] = ratio * -c
                utility_sell[i] = -c - matched_sell[i]

    return TradeOutcome(matched_buy, matched_sell, utility_buy, utility_sell, charge_total, discharge_total)


def profit(ev_supplies: list[float], trade: TradeOutcome, quote: PriceQuote) -> ProfitBreakdown:
    """Profit of every station for one cleared slot.

    Income from EVs plus buyback, minus utility purchases, plus the signed
    internal-trade settlement ``(matched_sell - matched_buy) * trade price``.
    The trade settlements of all stations sum to zero, so the total profit
    does not depend on the trade price.
    """
    n = len(ev_supplies)
    if n != len(trade.matched_buy):
        raise ValueError(f"station count mismatch: {n} supplies vs {len(trade.matched_buy)} cleared")
    ev_income = [s * quote.ev for s in ev_supplies]
    utility_cost = [b * quote.utility for b in trade.utility_buy]
    trade_net = [(trade.matched_sell[i] - trade.matched_buy[i]) * quote.trade for i in range(n)]
    buyback_income = [s * quote.buyback for s in trade.utility_sell]
    station_profit = [
        ev_income[i] - utility_cost[i] + trade_net[i] + buyback_income[i] for i in range(n)
    ]
    return ProfitBreakdown(
        ev_income, utility_cost, trade_net, buyback_income, station_profit, sum(station_profit)
    )


_STATION_FIELDS = ("battery_kwh", "urgent_demand", "regular_demand", "renewable",
                   "ev_supply", "ess_control", "arrival_urgent", "arrival_regular")


def check_finite_station(values: Sequence[float], station: int | None = None,
                         names: Sequence[str] = _STATION_FIELDS) -> None:
    """Raise ConstraintViolation naming the first non-finite value of a station.

    ``values`` are named by ``names``, by default the leading fields of
    ``_STATION_FIELDS`` in that order.
    """
    # One test on the sum covers the common case; NaN and inf both survive it.
    if math.isfinite(sum(values)):
        return
    where = "" if station is None else f"station {station}: "
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise ConstraintViolation(f"{where}{name} {value} is not finite")


def _check_arrival(arrival: Sequence[float], station: int) -> None:
    """Raise ConstraintViolation naming the station of a non-finite or negative arrival."""
    check_finite_station(arrival, station, _STATION_FIELDS[6:])
    if arrival[0] < 0.0 or arrival[1] < 0.0:
        raise ConstraintViolation(
            f"station {station}: negative arrivals ({arrival[0]}, {arrival[1]})")


def step(states: Sequence[StationState], actions: Sequence[StationAction],
         renewables: Sequence[float], quote: PriceQuote,
         next_arrivals: Sequence[tuple[float, float]], params: EssParams) -> StepOutcome:
    """Advance all stations one slot.

    Checks each station's state, renewable and action for finiteness and its
    supply against the demand bound, computes the control interval of that
    supply, then checks that every interval is nonempty and holds its
    control (a small float tolerance admits actions decoded exactly onto a
    bound), and hands the rest to ``settle``.
    """
    n = len(states)
    if not (n == len(actions) == len(renewables) == len(next_arrivals)):
        raise ValueError("states, actions, renewables and next_arrivals must have equal length")
    intervals = []
    for i in range(n):
        st, act, renewable = states[i], actions[i], renewables[i]
        supply, urgent, total = act.ev_supply, st.urgent_demand, st.total_demand
        check_finite_station((st.battery_kwh, urgent, st.regular_demand, renewable, supply,
                              act.ess_control), i)
        if supply < urgent - _TOL or supply > total + _TOL:
            raise ConstraintViolation(f"station {i}: ev_supply {supply} outside [{urgent}, {total}]")
        intervals += control_intervals(st.battery_kwh, renewable, (supply,), params)
    for i, (act, (_, _, lower, upper)) in enumerate(zip(actions, intervals)):
        if lower > upper:
            raise InfeasibleIntervalError(
                f"station {i}: empty control interval [{lower}, {upper}]: "
                f"curtailment skipped or caps too tight")
        control = act.ess_control
        if control < lower - _TOL or control > upper + _TOL:
            raise ConstraintViolation(
                f"station {i}: ess_control {control} outside [{lower}, {upper}]")
    return settle(states, actions, intervals, quote, next_arrivals, params)


def settle(states: Sequence[StationState], actions: Sequence[StationAction],
           intervals: Sequence[tuple[float, float, float, float]], quote: PriceQuote,
           next_arrivals: Sequence[tuple[float, float]], params: EssParams) -> StepOutcome:
    """The rest of ``step`` once each station's ``control_intervals`` entry is known.

    Checks that the arrivals are finite and nonnegative; then clears the
    internal market, prices the slot, applies the battery dynamics and
    rolls unmet demand into next slot's urgent demand.  Each action must lie
    in its interval: ``step`` checks that, and an action ``ActionGrid.action``
    decoded from the blocks that hold the intervals does by construction.
    """
    for i, (_, _, _, arrival) in enumerate(zip(states, actions, intervals, next_arrivals,
                                               strict=True)):
        _check_arrival(arrival, i)

    controls = [a.ess_control for a in actions]
    supplies = [a.ev_supply for a in actions]
    trade = clear_trades(controls)
    breakdown = profit(supplies, trade, quote)

    beta, floor, ceiling = params.leakage_beta, params.capacity_min, params.usable_max
    next_states = []
    for st, control, supply, (flow, _, _, _), (arr_urgent, arr_regular) in zip(
            states, controls, supplies, intervals, next_arrivals):
        # Clamp float rounding back onto the physical band; an action in its
        # interval keeps any excursion within _TOL of a bound.
        battery = min(max(beta * st.battery_kwh + control + flow, floor), ceiling)
        carryover = max(st.total_demand - supply, 0.0)
        next_states.append(StationState(battery, arr_urgent + carryover, arr_regular))
    return StepOutcome(next_states, trade, breakdown, [cut for _, cut, _, _ in intervals])


# -- array-native path ----------------------------------------------------
#
# The functions below compute exactly what ``step`` and its helpers compute,
# for many independent rows of ``n`` stations at once, with the same float
# operations on each nonzero value in the same order, so their results agree
# bit for bit (tests/test_batch.py).  Sums over stations are written as explicit
# left-to-right loops for that reason: numpy's reductions sum pairwise.
#
# Like the scalar path, which decodes with ``ActionGrid.blocks`` and
# ``ActionGrid.action`` and then ``settle``s, the array path decodes with
# ``ActionGrid.decode_batch``, which checks the states and computes each
# block's control interval and internal flow once, and settles in two
# halves, split where the stations couple.  ``advance_stations_batch`` is
# what a station's own action decides: its next state, from the decoded
# flow.  ``clear_and_price_batch`` couples the stations: clearing and
# pricing.  The oracle runs the first once per distinct (station state,
# action) in a block and the second once per (row, joint action) pair.  Neither path checks a decoded action
# again (it lies in its interval by construction), only the arrivals.


def check_batch(flag, what: str, **fields: np.ndarray) -> None:
    """Raise ConstraintViolation naming station, field and row of a value ``flag`` marks.

    ``flag`` maps an array to a boolean array of its shape, and ``what`` says
    what is wrong with a marked value.  The arrays' last axis is the station.
    """
    for name, values in fields.items():
        bad = flag(values)
        if bad.any():
            idx = tuple(int(v[0]) for v in np.nonzero(bad))
            raise ConstraintViolation(f"station {idx[-1]}: {name} {values[idx]} {what} "
                                      f"(row {', '.join(map(str, idx[:-1]))})")


def control_bounds_batch(battery: np.ndarray, renewable: np.ndarray, supply: np.ndarray,
                         params: EssParams
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``control_intervals`` over arrays, one supply per entry, without raising.

    Returns ``(internal_flow, lower, upper, feasible)``; where ``feasible``
    is false ``control_intervals`` returns ``lower > upper``, and here
    ``upper`` is set to ``lower``.
    """
    raw = renewable - supply
    carried = params.leakage_beta * battery
    base_upper = params.usable_max - carried
    headroom = base_upper + params.export_cap
    flow = np.where(raw <= headroom, raw, headroom)
    lower = (params.capacity_min - carried) - flow
    upper = base_upper - flow
    lower = np.where(lower < -params.export_cap, -params.export_cap, lower)
    upper = np.where(upper > params.import_cap, params.import_cap, upper)
    feasible = ~(lower > upper + _TOL)
    upper = np.where(lower > upper, lower, upper)
    return flow, lower, upper, feasible


def advance_stations_batch(
    battery: np.ndarray,
    urgent: np.ndarray,
    regular: np.ndarray,
    supply: np.ndarray,
    control: np.ndarray,
    flow: np.ndarray,
    next_arrivals,
    params: EssParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-station half of settling decoded actions: the next states.

    The state arrays (``battery``, ``urgent``, ``regular``) and the decoded
    ``supply``, ``control`` and internal ``flow`` of ``decode_batch``
    broadcast together to one shape whose last axis is the station;
    ``next_arrivals`` is one (urgent, regular) pair per station.  Makes
    ``settle``'s arrival checks, with its messages, and applies its
    dynamics; the actions are not checked again.  Returns the next battery,
    urgent and regular demand, each of the broadcast shape.
    """
    arrivals = check_arrivals(next_arrivals, np.shape(battery)[-1])
    # Dynamics, as the tail of settle.
    next_battery = params.leakage_beta * battery + control + flow
    next_battery = np.minimum(np.maximum(next_battery, params.capacity_min), params.usable_max)
    next_urgent = arrivals[:, 0] + np.maximum((urgent + regular) - supply, 0.0)
    return next_battery, next_urgent, np.broadcast_to(arrivals[:, 1], next_urgent.shape).copy()


def check_arrivals(next_arrivals, n: int) -> np.ndarray:
    """``n`` stations' (urgent, regular) ``next_arrivals`` as an ``(n, 2)`` array.

    Makes ``settle``'s arrival checks, with its messages.
    """
    arrivals = np.asarray(next_arrivals, dtype=float)
    if arrivals.shape != (n, 2):
        raise ValueError(f"next_arrivals must be {n} (urgent, regular) pairs")
    for i, arrival in enumerate(arrivals.tolist()):
        _check_arrival(arrival, i)
    return arrivals


def clear_and_price_batch(supply: np.ndarray, control: np.ndarray,
                          quote: PriceQuote) -> np.ndarray:
    """The coupled half of settling: ``(n, N)`` actions to ``(N,)`` total profit.

    Station-major: row ``i`` holds station i's supply or control in each of
    N joint actions.  Clears each column as ``clear_trades`` does, on the
    parts ``buy = max(c, 0)`` and ``sell = max(-c, 0)``: the long side
    matches ``ratio * part``, the short side all of it, and a utility flow
    is a part minus its match.  Prices as ``profit`` does, summing the
    stations left to right.
    """
    n, columns = control.shape
    buy = np.maximum(control, 0.0)
    sell = buy - control
    charge_total, discharge_total = np.zeros(columns), np.zeros(columns)
    for i in range(n):
        charge_total = charge_total + buy[i]
        discharge_total = discharge_total + sell[i]
    long_charge = charge_total > discharge_total
    long = np.maximum(charge_total, discharge_total)
    ratio = np.divide(np.minimum(charge_total, discharge_total), long, out=np.zeros(columns),
                      where=long > 0.0)
    matched_buy = buy * np.where(long_charge, ratio, 1.0)
    matched_sell = sell * np.where(long_charge, 1.0, ratio)

    station_profit = (supply * quote.ev - (buy - matched_buy) * quote.utility
                      + (matched_sell - matched_buy) * quote.trade
                      + (sell - matched_sell) * quote.buyback)
    total_profit = np.zeros(columns)
    for i in range(n):
        total_profit = total_profit + station_profit[i]
    return total_profit
