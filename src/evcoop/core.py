"""Per-slot dynamics of an EV charging station microgrid.

Each station serves EV demand (split into an urgent part that must be met
this slot and a deferrable regular part), owns a battery with leakage, and
may charge or discharge it.  Discharged energy is first matched against
other stations' charging requests by a coordinator (proportional clearing);
residuals are bought from or sold back to the utility.  All functions here
are pure: they take values and return values, no hidden state.

Actions are a ``K_ev x K_cs`` grid, ``ActionGrid``: a supply fraction of
regular demand crossed with battery control levels spaced linearly over that
supply's feasible interval, so every decodable action respects the demand
and battery constraints.  Each slot of ``run_episode``, every policy's
episode loop, decodes each supply fraction's block once (``ActionGrid.blocks``),
then only the chosen action (``ActionGrid.action``), and settles on the
chosen blocks' control interval entries (``settle``).  ``ActionGrid.decode_table``
is ``action`` at every index of one station's blocks; no command calls it, and
the tests pin the array decode ``ActionGrid.decode_batch`` to it.

Sign convention for ``ess_control``: positive means charging (energy bought
from the market/utility), negative means discharging (energy sold).  The
internal flow ``renewable - ev_supply`` charges or drains the battery
implicitly and is not traded.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # data imports this module
    from .data import Episode


class ConstraintViolation(ValueError):
    """An action or state breaks a physical bound; message names station and bound."""


class InfeasibleIntervalError(ConstraintViolation):
    """Charge/discharge interval is empty: the caps are too tight for curtailment to help."""


class PriceOrderingError(ValueError):
    """Quote violates buyback < trade < utility < ev."""


class InfeasibleActionError(ValueError):
    """Raised when decoding an action index the current mask forbids."""


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
        if not (self.buyback < self.trade < self.utility < self.ev < math.inf):
            raise PriceOrderingError(
                f"price ordering violated: need buyback < trade < utility < ev < inf, "
                f"got ({self.buyback}, {self.trade}, {self.utility}, {self.ev})"
            )


@dataclass(frozen=True)
class Multipliers:
    """Fixed factors that derive a slot's EV, trade and buyback prices from its utility price."""

    ev: float = 1.2
    trade: float = 0.9
    buyback: float = 0.8

    def __post_init__(self) -> None:
        if not (0.0 < self.buyback < self.trade < 1.0 < self.ev < math.inf):
            raise PriceOrderingError(
                f"need 0 < buyback < trade < 1 < ev < inf, "
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
    ``matched_sell + utility_sell == max(-control, 0)``.  The matched
    volumes of all stations sum to the same amount on both sides.
    """

    matched_buy: list[float]
    matched_sell: list[float]
    utility_buy: list[float]
    utility_sell: list[float]


@dataclass
class StepOutcome:
    """Everything produced by advancing all stations one slot.

    ``station_profit`` is each station's profit ($) from ``profit`` and
    ``total_profit`` their sum, left to right.
    """

    next_states: list[StationState]
    trade: TradeOutcome
    station_profit: list[float]
    total_profit: float
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

    return TradeOutcome(matched_buy, matched_sell, utility_buy, utility_sell)


def profit(ev_supplies: list[float], trade: TradeOutcome, quote: PriceQuote) -> list[float]:
    """Profit ($) of every station for one cleared slot.

    Income from EVs, minus utility purchases, plus the signed internal-trade
    settlement ``(matched_sell - matched_buy) * trade price``, plus buyback
    income, added in that order.  The trade settlements of all stations sum
    to zero, so the stations' total does not depend on the trade price.
    """
    if len(ev_supplies) != len(trade.matched_buy):
        raise ValueError(f"station count mismatch: {len(ev_supplies)} supplies vs "
                         f"{len(trade.matched_buy)} cleared")
    return [s * quote.ev - b * quote.utility + (ms - mb) * quote.trade + sb * quote.buyback
            for s, b, ms, mb, sb in zip(ev_supplies, trade.utility_buy, trade.matched_sell,
                                        trade.matched_buy, trade.utility_sell)]


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
    internal market, prices each station's slot with ``profit`` and sums
    the stations left to right, applies the battery dynamics and rolls
    unmet demand into next slot's urgent demand.  Each action must lie
    in its interval: ``step`` checks that, and an action ``ActionGrid.action``
    decoded from the blocks that hold the intervals does by construction.
    """
    for i, (_, _, _, arrival) in enumerate(zip(states, actions, intervals, next_arrivals,
                                               strict=True)):
        _check_arrival(arrival, i)

    controls = [a.ess_control for a in actions]
    supplies = [a.ev_supply for a in actions]
    trade = clear_trades(controls)
    station_profit = profit(supplies, trade, quote)

    beta, floor, ceiling = params.leakage_beta, params.capacity_min, params.usable_max
    next_states = []
    for st, control, supply, (flow, _, _, _), (arr_urgent, arr_regular) in zip(
            states, controls, supplies, intervals, next_arrivals):
        # Clamp float rounding back onto the physical band; an action in its
        # interval keeps any excursion within _TOL of a bound.
        battery = min(max(beta * st.battery_kwh + control + flow, floor), ceiling)
        carryover = max(st.total_demand - supply, 0.0)
        next_states.append(StationState(battery, arr_urgent + carryover, arr_regular))
    return StepOutcome(next_states, trade, station_profit, sum(station_profit),
                       [cut for _, cut, _, _ in intervals])


Block = tuple[float, tuple[float, float, float, float]]  # supply, (flow, cut, lo, hi)


def linspace_at(lo: float, hi: float, m: int, k: int) -> float:
    """``np.linspace(lo, hi, m)[k]`` for float endpoints, bit for bit.

    numpy multiplies k by the step (or k / (m - 1) by the width when the
    step is zero), adds lo, and puts hi exactly at the end.
    """
    width = hi - lo
    if m == 1:
        return 0.0 * width + lo
    if k == m - 1:
        return hi
    step = width / (m - 1)
    return (k / (m - 1)) * width + lo if step == 0 else k * step + lo


def linspace_rows(lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    """``linspace_at`` at every k, per element of the endpoint arrays; adds a last axis of m.

    ``np.linspace`` with array endpoints would switch every element to the
    zero-step formula if any one had a zero step; this chooses per element.
    """
    k = np.arange(m, dtype=float)
    lo, hi = lo[..., None], hi[..., None]
    width = hi - lo
    if m == 1:
        return 0.0 * width + lo
    step = width / (m - 1)
    levels = np.where(step == 0, (k / (m - 1)) * width, k * step) + lo
    levels[..., -1] = hi[..., 0]
    return levels


@dataclass(frozen=True)
class ActionGrid:
    """Joint discretization of per-station supply and battery control.

    Flat index ``e * cs_levels + c`` selects supply fraction ``ev_fractions[e]``
    and the ``c``-th of ``cs_levels`` control levels spaced inclusively over
    the feasible interval for that supply.
    """

    ev_fractions: tuple[float, ...] = (0.0, 0.5, 1.0)
    cs_levels: int = 5

    def __post_init__(self):
        if not isinstance(self.cs_levels, int):
            raise ValueError(f"cs_levels must be an int, got {self.cs_levels!r}")
        if len(self.ev_fractions) == 0:
            raise ValueError("need at least one supply fraction")
        for f in self.ev_fractions:
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"supply fraction {f} outside [0, 1]")
        if self.cs_levels < 1:
            raise ValueError("cs_levels must be >= 1")

    @property
    def n_actions(self) -> int:
        return len(self.ev_fractions) * self.cs_levels

    def blocks(self, state: StationState, renewable: float,
               params: EssParams) -> list[Block | None]:
        """Each supply fraction's ``(supply, (flow, cut, lo, hi))``, or None.

        The pair is the supply and its ``control_intervals`` entry.  None
        masks a block whose interval is empty (possible under tight
        export/import caps); at least one block must survive.  A non-finite
        input raises ConstraintViolation naming its field.
        """
        battery, urgent, regular = state.battery_kwh, state.urgent_demand, state.regular_demand
        check_finite_station((battery, urgent, regular, renewable))
        fraction_supplies = [urgent + frac * regular for frac in self.ev_fractions]
        intervals = control_intervals(battery, renewable, fraction_supplies, params)
        out = [None if interval[2] > interval[3] else (supply, interval)
               for supply, interval in zip(fraction_supplies, intervals)]
        if out.count(None) == len(out):
            raise InfeasibleActionError(
                "no feasible action: every supply fraction leaves an empty control interval")
        return out

    def action(self, blocks: list[Block | None], index: int) -> StationAction:
        """The StationAction of flat ``index`` on one station's ``blocks``."""
        if not 0 <= index < self.n_actions:
            raise InfeasibleActionError(f"action index {index} outside grid of {self.n_actions}")
        block = blocks[index // self.cs_levels]
        if block is None:
            raise InfeasibleActionError(f"action index {index} is masked infeasible at this step")
        supply, (_, _, lo, hi) = block
        return StationAction(ev_supply=supply,
                             ess_control=linspace_at(lo, hi, self.cs_levels, index % self.cs_levels))

    def decode_table(self, state: StationState, renewable: float,
                     params: EssParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All decoded (supplies, controls, mask) for one station at one slot.

        ``action`` at every index of ``blocks``; a masked block's entries are zero.
        """
        blocks = self.blocks(state, renewable, params)
        mask = np.repeat([block is not None for block in blocks], self.cs_levels)
        actions = [self.action(blocks, k) if feasible else StationAction(0.0, 0.0)
                   for k, feasible in enumerate(mask)]
        return (np.array([a.ev_supply for a in actions]),
                np.array([a.ess_control for a in actions]), mask)

    def decode_batch(self, battery: np.ndarray, urgent: np.ndarray, regular: np.ndarray,
                     renewables, params: EssParams
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``decode_table`` for every station of ``(N, n)`` state arrays at once.

        ``renewables`` has shape ``(n,)`` or ``(N, n)``.  Returns
        ``(N, n, n_actions)`` supplies, controls, mask and internal flow:
        the first three equal bit for bit to ``decode_table`` per station,
        and each entry's flow is its block's ``control_intervals`` flow, the
        one ``core.advance_stations_batch`` settles on.  A station with no
        feasible block gets an all-false mask row instead of an error;
        callers prune it.  A masked entry's supply, control and flow are zero.
        """
        renewables = np.broadcast_to(np.asarray(renewables, dtype=float), battery.shape)
        state = {"urgent_demand": urgent, "regular_demand": regular, "renewable": renewables}
        check_batch(lambda v: ~np.isfinite(v), "is not finite", battery_kwh=battery, **state)
        check_batch(lambda v: v < 0.0, "is negative", **state)
        m = self.cs_levels
        # (N, n, fraction) blocks, then (N, n, fraction, level) entries flattened to actions
        supply = urgent[..., None] + np.asarray(self.ev_fractions) * regular[..., None]
        flow, lo, hi, feasible = control_bounds_batch(battery[..., None], renewables[..., None],
                                                      supply, params)
        controls = np.where(feasible[..., None], linspace_rows(lo, hi, m), 0.0)
        return (np.repeat(np.where(feasible, supply, 0.0), m, axis=-1),
                controls.reshape(*battery.shape, self.n_actions), np.repeat(feasible, m, axis=-1),
                np.repeat(np.where(feasible, flow, 0.0), m, axis=-1))


@dataclass
class SlotLog:
    """Everything observed at one slot of a rollout, for trace emission."""

    states: tuple[StationState, ...]
    actions: list[StationAction]
    outcome: StepOutcome
    quote: PriceQuote
    renewables: tuple[float, ...]


def _indices(chosen, n: int, t: int) -> np.ndarray:
    """A chooser's ``chosen`` as n integer action indices, else a ValueError naming slot ``t``."""
    try:
        picks = np.asarray(chosen)
    except ValueError:  # ragged
        picks = np.empty(0)
    if picks.shape != (n,) or picks.dtype.kind not in "iu":
        raise ValueError(f"slot {t}: the chooser returned {chosen!r}, not {n} integer indices")
    return picks


def run_episode(episode: Episode, params: EssParams, grid: ActionGrid,
                choose: Callable[..., Sequence[int]], collect_trace: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[SlotLog] | None]:
    """One episode under any policy: actions, masks, total and station profit, trace.

    At slot t each station's ``grid.blocks`` fill its row of ``masks[t]`` (n, A),
    ``choose(t, states, masks[t])`` returns one action index per station, and
    ``core.settle`` settles the chosen blocks' intervals."""
    T, n, m = episode.length, episode.station_count, grid.cs_levels
    actions, masks = np.zeros((T, n), dtype=np.int64), np.zeros((T, n, grid.n_actions), dtype=bool)
    mask_blocks = masks.reshape(T, n, len(grid.ev_fractions), m)  # a view
    totals, station = np.zeros(T), np.zeros((T, n))
    trace: list[SlotLog] | None = [] if collect_trace else None

    states = episode.initial_states
    for t in range(T):
        quote, renew = episode.quotes[t], episode.renewables[t]
        blocks = [grid.blocks(states[i], renew[i], params) for i in range(n)]
        mask_blocks[t] = np.array([b is not None for bl in blocks for b in bl]).reshape(n, -1, 1)
        actions[t] = picks = _indices(choose(t, states, masks[t]), n, t)
        picked = list(zip(blocks, picks.tolist()))
        chosen = [grid.action(bl, idx) for bl, idx in picked]
        intervals = [bl[idx // m][1] for bl, idx in picked]
        outcome = settle(states, chosen, intervals, quote, episode.arrivals[t], params)
        totals[t] = outcome.total_profit
        station[t] = outcome.station_profit
        if trace is not None:
            trace.append(SlotLog(states, chosen, outcome, quote, renew))
        states = tuple(outcome.next_states)
    return actions, masks, totals, station, trace


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
