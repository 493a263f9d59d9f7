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
from dataclasses import dataclass

import numpy as np


class ConstraintViolation(ValueError):
    """An action or state breaks a physical bound; message names station and bound."""


class InfeasibleIntervalError(ConstraintViolation):
    """Charge/discharge interval is empty; caller skipped renewable curtailment."""


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
        if not (0.0 < self.soc_min < self.soc_max <= 1.0):
            raise ValueError(f"need 0 < soc_min < soc_max <= 1, got {self.soc_min}, {self.soc_max}")
        if not (0.0 < self.leakage_beta <= 1.0):
            raise ValueError(f"leakage_beta must be in (0, 1], got {self.leakage_beta}")
        if self.capacity_max <= 0.0:
            raise ValueError(f"capacity_max must be positive, got {self.capacity_max}")
        if self.export_cap is None:
            object.__setattr__(self, "export_cap", 10.0 * self.capacity_max)
        if self.import_cap is None:
            object.__setattr__(self, "import_cap", 10.0 * self.capacity_max)
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
    internal_flow: list[float]


def soc(state: StationState, params: EssParams) -> float:
    """State of charge: battery level divided by maximum capacity."""
    return state.battery_kwh / params.capacity_max


def ess_bounds(prev_battery: float, internal_flow: float, params: EssParams) -> tuple[float, float]:
    """Feasible closed interval for the charge/discharge control.

    The battery after the slot is ``beta * prev + control + internal_flow``
    and must land in ``[capacity_min, usable_max]``; on top of that the
    per-slot export/import caps clamp the interval.  With curtailment
    applied first the interval is never empty (see ``curtail_renewable``).
    """
    carried = params.leakage_beta * prev_battery
    lower = (params.capacity_min - carried) - internal_flow
    upper = (params.usable_max - carried) - internal_flow
    if lower < -params.export_cap:
        lower = -params.export_cap
    if upper > params.import_cap:
        upper = params.import_cap
    if lower > upper:
        if lower > upper + _TOL:
            raise InfeasibleIntervalError(
                f"empty control interval [{lower}, {upper}]: curtailment skipped or caps too tight"
            )
        upper = lower  # collapse float-thin inversions onto a point
    return lower, upper


def curtail_renewable(
    renewable: float, ev_supply: float, prev_battery: float, params: EssParams
) -> tuple[float, float]:
    """Discard renewable surplus that neither the battery nor the market can absorb.

    Returns ``(internal_flow, curtailed)``.  The raw internal flow is
    ``renewable - ev_supply``; it is capped at the battery headroom plus the
    export cap so that the control interval stays nonempty.  A deficit
    (negative raw flow) is never curtailed.
    """
    if renewable < 0.0 or ev_supply < 0.0:
        raise ValueError(f"renewable and ev_supply must be nonnegative, got {renewable}, {ev_supply}")
    raw = renewable - ev_supply
    headroom = (params.usable_max - params.leakage_beta * prev_battery) + params.export_cap
    if raw <= headroom:
        return raw, 0.0
    return headroom, raw - headroom


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


def _check_finite_station(i: int, state: StationState, action: StationAction,
                          renewable: float, arrival: tuple[float, float]) -> None:
    """Raise ConstraintViolation naming the first non-finite input of station ``i``."""
    values = (state.battery_kwh, state.urgent_demand, state.regular_demand, renewable,
              action.ev_supply, action.ess_control, arrival[0], arrival[1])
    # One test on the sum covers the common case; NaN and inf both survive it.
    if math.isfinite(sum(values)):
        return
    for name, value in zip(_STATION_FIELDS, values):
        if not math.isfinite(value):
            raise ConstraintViolation(f"station {i}: {name} {value} is not finite")


def step(
    states: list[StationState],
    actions: list[StationAction],
    renewables: list[float],
    quote: PriceQuote,
    next_arrivals: list[tuple[float, float]],
    params: EssParams,
) -> StepOutcome:
    """Advance all stations one slot.

    Validates every action against the demand bound and the post-curtailment
    control interval (a small float tolerance admits actions decoded exactly
    onto a bound), clears the internal market, prices the slot, applies the
    battery dynamics and rolls unmet demand into next slot's urgent demand.
    """
    n = len(states)
    if not (n == len(actions) == len(renewables) == len(next_arrivals)):
        raise ValueError("states, actions, renewables and next_arrivals must have equal length")

    internal_flows = [0.0] * n
    curtailed = [0.0] * n
    for i in range(n):
        st, act = states[i], actions[i]
        _check_finite_station(i, st, act, renewables[i], next_arrivals[i])
        lo_supply = st.urgent_demand
        hi_supply = st.total_demand
        if act.ev_supply < lo_supply - _TOL or act.ev_supply > hi_supply + _TOL:
            raise ConstraintViolation(
                f"station {i}: ev_supply {act.ev_supply} outside [{lo_supply}, {hi_supply}]"
            )
        flow, cut = curtail_renewable(renewables[i], act.ev_supply, st.battery_kwh, params)
        try:
            lower, upper = ess_bounds(st.battery_kwh, flow, params)
        except InfeasibleIntervalError as exc:
            raise InfeasibleIntervalError(f"station {i}: {exc}") from None
        if act.ess_control < lower - _TOL or act.ess_control > upper + _TOL:
            raise ConstraintViolation(
                f"station {i}: ess_control {act.ess_control} outside [{lower}, {upper}]"
            )
        internal_flows[i] = flow
        curtailed[i] = cut

    trade = clear_trades([a.ess_control for a in actions])
    breakdown = profit([a.ev_supply for a in actions], trade, quote)

    next_states = []
    for i in range(n):
        st, act = states[i], actions[i]
        battery = params.leakage_beta * st.battery_kwh + act.ess_control + internal_flows[i]
        # Clamp float rounding back onto the physical band; validation above
        # guarantees any excursion is within _TOL of a bound.
        battery = min(max(battery, params.capacity_min), params.usable_max)
        arr_urgent, arr_regular = next_arrivals[i]
        if arr_urgent < 0.0 or arr_regular < 0.0:
            raise ConstraintViolation(f"station {i}: negative arrivals ({arr_urgent}, {arr_regular})")
        carryover = max(st.total_demand - act.ev_supply, 0.0)
        next_states.append(
            StationState(
                battery_kwh=battery,
                urgent_demand=arr_urgent + carryover,
                regular_demand=arr_regular,
            )
        )
    return StepOutcome(next_states, trade, breakdown, curtailed, internal_flows)


# -- array-native path ----------------------------------------------------
#
# The functions below compute exactly what ``step`` and its helpers compute,
# for ``N`` independent rows of ``n`` stations at once, with the same float
# operations in the same order, so their results agree bit for bit (pinned
# by tests/test_batch.py).  Sums over stations are written as explicit
# left-to-right loops for that reason: numpy's reductions sum pairwise.


def _first_bad(bad: np.ndarray) -> tuple[int, ...]:
    """Index of the first true entry of a boolean array."""
    return tuple(int(v[0]) for v in np.nonzero(bad))


def check_finite_batch(**fields: np.ndarray) -> None:
    """Raise ConstraintViolation naming station and field of a non-finite value.

    Every array is ``(rows, stations)``.
    """
    for name, values in fields.items():
        bad = ~np.isfinite(values)
        if bad.any():
            r, i = _first_bad(bad)
            raise ConstraintViolation(
                f"station {i}: {name} {values[r, i]} is not finite (row {r})")


def control_bounds_batch(battery: np.ndarray, renewable: np.ndarray, supply: np.ndarray,
                         params: EssParams
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``curtail_renewable`` then ``ess_bounds`` over arrays, without raising.

    Returns ``(internal_flow, lower, upper, feasible)``; where ``feasible``
    is false ``ess_bounds`` would raise InfeasibleIntervalError.
    """
    raw = renewable - supply
    headroom = (params.usable_max - params.leakage_beta * battery) + params.export_cap
    flow = np.where(raw <= headroom, raw, headroom)
    carried = params.leakage_beta * battery
    lower = (params.capacity_min - carried) - flow
    upper = (params.usable_max - carried) - flow
    lower = np.where(lower < -params.export_cap, -params.export_cap, lower)
    upper = np.where(upper > params.import_cap, params.import_cap, upper)
    feasible = ~(lower > upper + _TOL)
    upper = np.where(lower > upper, lower, upper)
    return flow, lower, upper, feasible


def step_batch(
    battery: np.ndarray,
    urgent: np.ndarray,
    regular: np.ndarray,
    supply: np.ndarray,
    control: np.ndarray,
    renewables,
    quote: PriceQuote,
    next_arrivals,
    params: EssParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance ``N`` independent rows of ``n`` stations one slot, as ``step`` does.

    ``battery``, ``urgent``, ``regular`` (the states) and ``supply``,
    ``control`` (the actions) are ``(N, n)`` arrays.  ``renewables`` has
    shape ``(n,)`` or ``(N, n)`` and ``next_arrivals`` is ``n`` pairs of
    (urgent, regular) kWh shared by every row.  Every input is validated
    once for the whole batch; a bad value raises the error ``step`` would
    raise for its row.  Returns the next battery, urgent and regular demand
    arrays and the ``(N,)`` total profit of each row.
    """
    if battery.ndim != 2:
        raise ValueError(f"state arrays must be (rows, stations), got shape {battery.shape}")
    renewables = np.broadcast_to(np.asarray(renewables, dtype=float), battery.shape)
    arrivals = np.asarray(next_arrivals, dtype=float)
    if arrivals.shape != (battery.shape[1], 2):
        raise ValueError(f"next_arrivals must be {battery.shape[1]} (urgent, regular) pairs")
    arr_urgent, arr_regular = arrivals[:, 0], arrivals[:, 1]
    check_finite_batch(battery_kwh=battery, urgent_demand=urgent, regular_demand=regular,
                       renewable=renewables, ev_supply=supply, ess_control=control,
                       arrival_urgent=arr_urgent[None], arrival_regular=arr_regular[None])
    bad = (urgent < 0.0) | (regular < 0.0)
    if bad.any():
        r, i = _first_bad(bad)
        raise ConstraintViolation(
            f"station {i}: negative demand ({urgent[r, i]}, {regular[r, i]}) (row {r})")
    total_demand = urgent + regular
    bad = (supply < urgent - _TOL) | (supply > total_demand + _TOL)
    if bad.any():
        r, i = _first_bad(bad)
        raise ConstraintViolation(f"station {i}: ev_supply {supply[r, i]} outside "
                                  f"[{urgent[r, i]}, {total_demand[r, i]}] (row {r})")
    if (renewables < 0.0).any() or (supply < 0.0).any():
        raise ValueError("renewable and ev_supply must be nonnegative")
    flow, lower, upper, feasible = control_bounds_batch(battery, renewables, supply, params)
    if not feasible.all():
        r, i = _first_bad(~feasible)
        raise InfeasibleIntervalError(
            f"station {i}: empty control interval [{lower[r, i]}, {upper[r, i]}] (row {r})")
    bad = (control < lower - _TOL) | (control > upper + _TOL)
    if bad.any():
        r, i = _first_bad(bad)
        raise ConstraintViolation(f"station {i}: ess_control {control[r, i]} outside "
                                  f"[{lower[r, i]}, {upper[r, i]}] (row {r})")
    bad = (arr_urgent < 0.0) | (arr_regular < 0.0)
    if bad.any():
        i = _first_bad(bad)[0]
        raise ConstraintViolation(
            f"station {i}: negative arrivals ({arr_urgent[i]}, {arr_regular[i]})")

    # Clearing, as clear_trades.
    n = battery.shape[1]
    charging = control > 0.0
    discharging = control < 0.0
    charge_total = np.zeros(len(battery))
    discharge_total = np.zeros(len(battery))
    for i in range(n):
        charge_total = charge_total + np.where(charging[:, i], control[:, i], 0.0)
        discharge_total = discharge_total + np.where(charging[:, i], 0.0, -control[:, i])
    long_charge = charge_total > discharge_total
    short = np.where(long_charge, discharge_total, charge_total)
    long = np.where(long_charge, charge_total, discharge_total)
    ratio = np.divide(short, long, out=np.zeros_like(long), where=long > 0.0)[:, None]
    long_charge = long_charge[:, None]
    matched_buy = np.where(charging, np.where(long_charge, ratio * control, control), 0.0)
    utility_buy = np.where(charging & long_charge, control - matched_buy, 0.0)
    matched_sell = np.where(discharging, np.where(long_charge, -control, ratio * -control), 0.0)
    utility_sell = np.where(discharging & ~long_charge, -control - matched_sell, 0.0)

    # Pricing, as profit.
    station_profit = (supply * quote.ev - utility_buy * quote.utility
                      + (matched_sell - matched_buy) * quote.trade
                      + utility_sell * quote.buyback)
    total_profit = np.zeros(len(battery))
    for i in range(n):
        total_profit = total_profit + station_profit[:, i]

    # Dynamics, as the tail of step.
    next_battery = params.leakage_beta * battery + control + flow
    next_battery = np.minimum(np.maximum(next_battery, params.capacity_min), params.usable_max)
    carryover = np.maximum(total_demand - supply, 0.0)
    next_urgent = arr_urgent + carryover
    next_regular = np.broadcast_to(arr_regular, battery.shape).copy()
    return next_battery, next_urgent, next_regular, total_profit
