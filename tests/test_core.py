"""Slot dynamics: clearing, profits, battery bounds, curtailment, stepping."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcoop import core, fuzz
from evcoop.core import (
    ActionGrid,
    ConstraintViolation,
    EssParams,
    InfeasibleActionError,
    InfeasibleIntervalError,
    Multipliers,
    PriceOrderingError,
    PriceQuote,
    StationAction,
    StationState,
    clear_trades,
    control_intervals,
    profit,
    soc,
    step,
)

QUOTE = PriceQuote(utility=0.10, ev=0.12, trade=0.09, buyback=0.08)


def test_clearing_worked_example():
    # Two buyers (+10, +30) against one seller (-20): the seller is short,
    # so it is fully matched and the buyers get a 0.5 pro-rata fill.
    out = clear_trades([10.0, 30.0, -20.0])
    assert out.matched_buy == pytest.approx([5.0, 15.0, 0.0])
    assert out.utility_buy == pytest.approx([5.0, 15.0, 0.0])
    assert out.matched_sell == pytest.approx([0.0, 0.0, 20.0])
    assert out.utility_sell == pytest.approx([0.0, 0.0, 0.0])


def test_profit_worked_example():
    out = clear_trades([10.0, 30.0, -20.0])
    station_profit = profit([0.0, 0.0, 0.0], out, QUOTE)
    assert len(station_profit) == 3
    assert station_profit[0] == pytest.approx(-5 * 0.10 - 5 * 0.09)
    assert station_profit[1] == pytest.approx(-15 * 0.10 - 15 * 0.09)
    assert station_profit[2] == pytest.approx(20 * 0.09)
    # Net position is 20 kWh bought from the utility.
    assert sum(station_profit) == pytest.approx(-20 * 0.10)


def test_clearing_balanced_sides():
    out = clear_trades([15.0, -10.0, -5.0])
    assert out.matched_buy == pytest.approx([15.0, 0.0, 0.0])
    assert out.matched_sell == pytest.approx([0.0, 10.0, 5.0])
    assert sum(out.utility_buy) == pytest.approx(0.0)
    assert sum(out.utility_sell) == pytest.approx(0.0)


def test_clearing_one_sided_routes_to_utility():
    out = clear_trades([7.0, 3.0])
    assert out.utility_buy == pytest.approx([7.0, 3.0])
    assert sum(out.matched_buy) == pytest.approx(0.0)
    out = clear_trades([-4.0])
    assert out.utility_sell == pytest.approx([4.0])


def test_clearing_rejects_empty():
    with pytest.raises(ValueError):
        clear_trades([])


def test_price_ordering_enforced():
    with pytest.raises(PriceOrderingError):
        PriceQuote(utility=0.10, ev=0.12, trade=0.11, buyback=0.08)
    with pytest.raises(PriceOrderingError):
        PriceQuote(utility=0.10, ev=0.09, trade=0.09, buyback=0.08)
    with pytest.raises(PriceOrderingError):
        PriceQuote(utility=0.10, ev=0.12, trade=0.09, buyback=-0.01)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: PriceQuote(0.1, math.inf, 0.09, 0.08), id="quote"),
    pytest.param(lambda: Multipliers(ev=math.inf), id="multipliers"),
])
def test_price_classes_reject_an_infinite_ev_price(make):
    # An infinite EV price used to surface only as a non-finite reward.
    with pytest.raises(PriceOrderingError, match="< ev < inf, got"):
        make()


def test_ess_params_derived_bounds():
    p = EssParams()
    assert p.capacity_min == pytest.approx(10.0)
    assert p.usable_max == pytest.approx(190.0)
    assert p.export_cap == pytest.approx(2000.0)
    with pytest.raises(ValueError):
        EssParams(soc_min=0.5, soc_max=0.4)
    with pytest.raises(ValueError):
        EssParams(leakage_beta=0.0)


@pytest.mark.parametrize("field", ["capacity_max", "soc_min", "soc_max", "leakage_beta",
                                   "export_cap", "import_cap"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ess_params_reject_non_finite_fields(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
        EssParams(**{field: bad})


def test_ess_params_reject_a_capacity_whose_default_caps_overflow():
    with pytest.raises(ValueError, match="^export_cap must be finite, got inf$"):
        EssParams(capacity_max=1e308)


def test_ess_bounds_algebra():
    # Supplies 0 and 50 against no renewable: internal flows 0 and -50.
    p = EssParams()
    (flow0, _, lo0, hi0), (flow1, _, lo1, hi1) = control_intervals(100.0, 0.0, [0.0, 50.0], p)
    assert flow0 == 0.0 and flow1 == -50.0
    assert lo0 == pytest.approx(10.0 - 99.0)
    assert hi0 == pytest.approx(190.0 - 99.0)
    assert lo1 == pytest.approx(-39.0)
    assert hi1 == pytest.approx(141.0)


def test_ess_bounds_caps_clamp():
    p = EssParams(capacity_max=100.0, export_cap=5.0, import_cap=5.0)
    [(_, _, lo, hi)] = control_intervals(50.0, 0.0, [0.0], p)
    assert lo == pytest.approx(-5.0)
    assert hi == pytest.approx(5.0)


def test_ess_bounds_empty_interval_raises():
    # Huge deficit flow with a tiny import cap: even max import cannot keep
    # the battery above its floor.  The interval comes back inverted, and
    # step raises.
    p = EssParams(capacity_max=100.0, import_cap=5.0)
    [(_, _, lo, hi)] = control_intervals(5.0, 0.0, [500.0], p)
    assert lo > hi
    with pytest.raises(InfeasibleIntervalError, match="station 0: empty control interval"):
        step([StationState(5.0, 500.0, 0.0)], [StationAction(500.0, 5.0)], [0.0], QUOTE,
             [(0.0, 0.0)], p)


def test_curtailment_caps_surplus():
    p = EssParams(capacity_max=100.0, soc_min=0.05, soc_max=0.95,
                  leakage_beta=1.0, export_cap=5.0)
    [(flow, cut, lo, hi)] = control_intervals(95.0, 20.0, [0.0], p)
    assert flow == pytest.approx(5.0)
    assert cut == pytest.approx(15.0)
    # After curtailment the control interval is a single point: sell 5.
    assert lo == pytest.approx(-5.0)
    assert hi == pytest.approx(-5.0)


def test_curtailment_never_cuts_deficit():
    p = EssParams()
    [(flow, cut, _, _)] = control_intervals(100.0, 1.0, [50.0], p)
    assert flow == pytest.approx(-49.0)
    assert cut == 0.0
    with pytest.raises(ValueError):
        control_intervals(100.0, -1.0, [0.0], p)


def test_soc_ratio():
    p = EssParams(capacity_max=200.0)
    assert soc(StationState(50.0, 0.0, 0.0), p) == pytest.approx(0.25)


def test_step_carryover_and_battery():
    p = EssParams()
    states = [StationState(battery_kwh=50.0, urgent_demand=2.0, regular_demand=8.0)]
    actions = [StationAction(ev_supply=2.0, ess_control=0.0)]
    out = step(states, actions, [0.0], QUOTE, [(1.0, 4.0)], p)
    nxt = out.next_states[0]
    # Unserved regular demand rolls into next slot's urgent bucket.
    assert nxt.urgent_demand == pytest.approx(1.0 + 8.0)
    assert nxt.regular_demand == pytest.approx(4.0)
    assert nxt.battery_kwh == pytest.approx(0.99 * 50.0 - 2.0)


def test_step_rejects_undersupply_and_oversupply():
    p = EssParams()
    states = [StationState(100.0, 5.0, 5.0)]
    with pytest.raises(ConstraintViolation):
        step(states, [StationAction(1.0, 0.0)], [0.0], QUOTE, [(0.0, 0.0)], p)
    with pytest.raises(ConstraintViolation):
        step(states, [StationAction(11.0, 0.0)], [0.0], QUOTE, [(0.0, 0.0)], p)


def test_step_rejects_out_of_bounds_control():
    p = EssParams()
    states = [StationState(100.0, 0.0, 0.0)]
    [(_, _, lo, hi)] = control_intervals(100.0, 0.0, [0.0], p)
    with pytest.raises(ConstraintViolation) as raised:
        step(states, [StationAction(0.0, 500.0)], [0.0], QUOTE, [(0.0, 0.0)], p)
    assert raised.type is ConstraintViolation
    assert str(raised.value) == f"station 0: ess_control 500.0 outside [{lo}, {hi}]"


def test_step_checks_every_control_before_any_arrival():
    # step checks each station's interval and control, then settle checks
    # the arrivals: a control outside its interval at station 1 is reported
    # ahead of a negative arrival at station 0.
    states = [StationState(100.0, 0.0, 0.0)] * 2
    with pytest.raises(ConstraintViolation, match="^station 1: ess_control 500.0 outside"):
        step(states, [StationAction(0.0, 0.0), StationAction(0.0, 500.0)], [0.0, 0.0], QUOTE,
             [(-1.0, 0.0), (0.0, 0.0)], EssParams())


def test_step_rejects_negative_arrivals():
    p = EssParams()
    states = [StationState(100.0, 0.0, 0.0)]
    with pytest.raises(ConstraintViolation):
        step(states, [StationAction(0.0, 0.0)], [0.0], QUOTE, [(-1.0, 0.0)], p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_step_rejects_non_finite_battery(bad):
    # A NaN battery level used to pass validation and yield a NaN next state.
    p = EssParams()
    states = [StationState(100.0, 0.0, 0.0), StationState(bad, 0.0, 0.0)]
    with pytest.raises(ConstraintViolation, match="station 1: battery_kwh"):
        step(states, [StationAction(0.0, 0.0)] * 2, [0.0, 0.0], QUOTE, [(0.0, 0.0)] * 2, p)


def test_step_rejects_non_finite_renewable():
    # A NaN renewable used to surface as a misleading control-bounds error.
    p = EssParams()
    states = [StationState(100.0, 0.0, 0.0)]
    with pytest.raises(ConstraintViolation, match="station 0: renewable nan is not finite"):
        step(states, [StationAction(0.0, 0.0)], [math.nan], QUOTE, [(0.0, 0.0)], p)


@pytest.mark.parametrize("field", ["ev_supply", "ess_control", "arrival_regular"])
def test_step_rejects_non_finite_action_or_arrival(field):
    p = EssParams()
    states = [StationState(100.0, 0.0, 0.0)]
    action = StationAction(math.nan if field == "ev_supply" else 0.0,
                           math.inf if field == "ess_control" else 0.0)
    arrival = (0.0, math.nan if field == "arrival_regular" else 0.0)
    with pytest.raises(ConstraintViolation, match=f"station 0: {field}"):
        step(states, [action], [0.0], QUOTE, [arrival], p)


def test_step_length_mismatch():
    p = EssParams()
    with pytest.raises(ValueError):
        step([StationState(100.0, 0.0, 0.0)], [], [0.0], QUOTE, [(0.0, 0.0)], p)
    # Before states joined settle's strict zip, this gave one next state and two station profits.
    with pytest.raises(ValueError, match="zip"):
        core.settle([StationState(100.0, 0.0, 0.0)], [StationAction(0.0, 0.0)] * 2,
                    control_intervals(100.0, 0.0, [0.0], p) * 2, QUOTE, [(0.0, 0.0)] * 2, p)


controls = st.lists(
    st.floats(-150.0, 150.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=8
)


@settings(max_examples=300, deadline=None)
@given(controls)
def test_clearing_conserves_matched_energy(cs):
    out = clear_trades(cs)
    assert sum(out.matched_buy) == pytest.approx(sum(out.matched_sell), abs=1e-9)
    # Residuals exist on at most one side of the market.
    assert min(sum(out.utility_buy), sum(out.utility_sell)) == pytest.approx(0.0, abs=1e-9)
    for i, c in enumerate(cs):
        assert out.matched_buy[i] + out.utility_buy[i] == pytest.approx(max(c, 0.0), abs=1e-9)
        assert out.matched_sell[i] + out.utility_sell[i] == pytest.approx(max(-c, 0.0), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    controls,
    st.floats(0.05, 2.0),
    st.floats(0.1, 0.95),
)
def test_total_profit_invariant_to_trade_price(cs, utility, trade_frac):
    supplies = [abs(c) * 0.1 for c in cs]
    out = clear_trades(cs)
    q1 = PriceQuote(utility, 1.2 * utility, 0.9 * utility, 0.8 * utility)
    trade2 = utility * (0.8 + 0.1 * trade_frac)  # anywhere in (buyback, utility)
    q2 = PriceQuote(utility, 1.2 * utility, trade2, 0.8 * utility)
    trade_net = [(ms - mb) * q1.trade for ms, mb in zip(out.matched_sell, out.matched_buy)]
    assert sum(trade_net) == pytest.approx(0.0, abs=1e-9)
    total1, total2 = sum(profit(supplies, out, q1)), sum(profit(supplies, out, q2))
    scale = max(1.0, abs(total1))
    assert abs(total1 - total2) <= 1e-9 * scale


def _profit_in_parts(ev_supplies, trade, quote):
    """``profit`` through its four priced parts, each a list, then added in order.

    The reference for ``profit``'s one-list form, which must keep every bit.
    """
    n = len(ev_supplies)
    ev_income = [s * quote.ev for s in ev_supplies]
    utility_cost = [b * quote.utility for b in trade.utility_buy]
    trade_net = [(trade.matched_sell[i] - trade.matched_buy[i]) * quote.trade for i in range(n)]
    buyback_income = [s * quote.buyback for s in trade.utility_sell]
    return [ev_income[i] - utility_cost[i] + trade_net[i] + buyback_income[i] for i in range(n)]


# Signed zeros, idle stations and exact halves, so that ties and zero flows come up.
_edge_controls = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0])


@st.composite
def _settled_controls(draw):
    """1-6 stations' controls: any floats, edge values, or buyers mirrored by sellers.

    A mirrored draw lists positive controls, then their negatives in the same
    order, so the charge and discharge totals tie bit for bit.
    """
    value = st.one_of(st.floats(-150.0, 150.0, allow_nan=False, allow_infinity=False),
                      _edge_controls)
    kind = draw(st.sampled_from(["any", "edge", "mirror"]))
    if kind == "mirror":
        half = draw(st.lists(st.floats(1e-3, 150.0), min_size=1, max_size=3))
        return half + [-c for c in half]
    return draw(st.lists(_edge_controls if kind == "edge" else value, min_size=1, max_size=6))


@settings(max_examples=500, deadline=None)
@given(st.data(), _settled_controls(), st.floats(0.03, 0.5), st.floats(1.05, 2.0),
       st.floats(0.85, 0.95), st.floats(0.5, 0.8))
def test_profit_keeps_the_bits_of_its_four_part_form(data, cs, utility, ev, trade, buyback):
    supplies = data.draw(st.lists(st.one_of(st.floats(0.0, 50.0), st.just(0.0)),
                                  min_size=len(cs), max_size=len(cs)))
    quote = PriceQuote(utility, ev * utility, trade * utility, buyback * utility)
    out = clear_trades(cs)
    got, want = profit(supplies, out, quote), _profit_in_parts(supplies, out, quote)
    assert _bits(got) == _bits(want)
    assert _bits(sum(got)) == _bits(sum(want))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(10.0, 190.0),
    st.floats(0.0, 40.0),
    st.floats(0.0, 30.0),
    st.floats(0.0, 1.0),
)
def test_step_keeps_battery_in_band(battery, renewable, demand, u):
    p = EssParams()
    state = StationState(battery, 0.3 * demand, 0.7 * demand)
    supply = state.urgent_demand
    [(_, _, lo, hi)] = control_intervals(battery, renewable, [supply], p)
    control = lo + u * (hi - lo)
    out = step([state], [StationAction(supply, control)], [renewable], QUOTE, [(0.0, 0.0)], p)
    nxt = out.next_states[0].battery_kwh
    assert p.capacity_min - 1e-9 <= nxt <= p.usable_max + 1e-9


# Params that leave no station a feasible action: the battery floor is far
# above anything one slot's import cap can reach.
NO_FEASIBLE_ACTION = EssParams(capacity_max=10_000.0, soc_min=0.5, soc_max=1.0,
                               leakage_beta=0.01, export_cap=1.0, import_cap=1.0)


def test_fuzz_profit_counts_only_checked_calls(monkeypatch):
    # The first block's params leave every call without a feasible action:
    # all of its calls are dropped and none counts.
    tight = iter([NO_FEASIBLE_ACTION])
    real_params, real_step = fuzz._random_params, fuzz.step
    params, steps = [], []

    def counting_params(rng):
        params.append(next(tight, None) or real_params(rng))
        return params[-1]

    def counting_step(*args):
        steps.append(len(args[0]))
        return real_step(*args)

    monkeypatch.setattr(fuzz, "_random_params", counting_params)
    monkeypatch.setattr(fuzz, "step", counting_step)
    report = fuzz.fuzz_profit(250, seed=59)
    assert report.ok
    assert len(steps) == report.calls == 250
    # one params draw per block of 100 calls: the dropped block, then three
    assert len(params) == 4 and params[0] is NO_FEASIBLE_ACTION


def test_fuzz_profit_propagates_constraint_violation(monkeypatch):
    # A decode that rejects its input is a failure, not a draw to redraw.
    real_decode = ActionGrid.decode_batch
    calls = {"n": 0}

    def rejects_once(self, *args):
        calls["n"] += 1
        if calls["n"] == 1:
            raise ConstraintViolation("battery_kwh nan is not finite")
        return real_decode(self, *args)

    monkeypatch.setattr(ActionGrid, "decode_batch", rejects_once)
    with pytest.raises(ConstraintViolation, match="not finite"):
        fuzz.fuzz_profit(10, seed=2)


# Params under which about a tenth of the stations, and so about a third of
# the calls, have no feasible action: the leaky battery cannot be lifted back
# to its floor through the import cap.
SOME_INFEASIBLE = EssParams(capacity_max=100.0, soc_min=0.3, soc_max=1.0, leakage_beta=0.5,
                            export_cap=5.0, import_cap=5.0)


def _scalar_profit_decode(calls, seed):
    """The profit fuzzer's decode as first written: one station at a time.

    The same draws as ``fuzz_profit``.  Each station acts at
    ``feasible[int(u * len(feasible))]`` of its ``ActionGrid.blocks``, and a
    call with a station that has none is dropped.  Returns each drawn call's
    states and its ``step`` arguments, None for a dropped call.
    """
    rng = np.random.default_rng(seed)
    grid = ActionGrid()
    m = grid.cs_levels
    k, drawn = 0, []
    while k < calls:
        params = fuzz._random_params(rng)
        n = rng.integers(2, 5, min(fuzz._PROFIT_BLOCK, calls - k))
        quotes = fuzz._random_quotes(rng, n.size)
        *station, renewable = (a.tolist() for a in fuzz._random_state(rng, params, n.sum()))
        states = list(map(StationState, *station))
        pick = rng.random(n.sum()).tolist()
        ends = np.cumsum(n).tolist()
        for q, lo, hi in zip(quotes, [0, *ends], ends):
            try:
                blocks = [grid.blocks(states[i], renewable[i], params) for i in range(lo, hi)]
            except InfeasibleActionError:
                drawn.append((states[lo:hi], None))
                continue
            actions = []
            for bl, u in zip(blocks, pick[lo:hi]):
                feasible = [e * m + c for e, b in enumerate(bl) if b is not None for c in range(m)]
                actions.append(grid.action(bl, feasible[int(u * len(feasible))]))
            drawn.append((states[lo:hi], (states[lo:hi], actions, renewable[lo:hi], q, params)))
            k += 1
    return drawn


def _step_bits(states, actions, renewables, quote, params):
    return (_bits([(s.battery_kwh, s.urgent_demand, s.regular_demand) for s in states]),
            _bits([(a.ev_supply, a.ess_control) for a in actions]), _bits(renewables),
            quote, params)


@pytest.mark.parametrize("first_params", [None, SOME_INFEASIBLE], ids=["seed2", "drops"])
def test_fuzz_profit_decode_matches_the_scalar_loop(monkeypatch, first_params):
    # One decode_batch per block must see the same stations as the scalar
    # loop, hand step, call by call, exactly what blocks/action give, and so
    # drop exactly the calls the loop drops.  "drops" swaps in params under
    # which some, not all, calls of the first block have no feasible action.
    real_params, real_decode, real_step = fuzz._random_params, ActionGrid.decode_batch, fuzz.step
    tight = []
    monkeypatch.setattr(fuzz, "_random_params", lambda rng: tight.pop() if tight else
                        real_params(rng))
    tight[:] = [first_params] if first_params else []
    drawn = _scalar_profit_decode(300, seed=2)
    want = [args for _, args in drawn if args is not None]
    assert len(want) == 300
    assert (len(drawn) > 300) == (first_params is not None)
    batteries, steps = [], []

    def recording_decode(self, battery, *args):
        batteries.extend(battery[:, 0].tolist())
        return real_decode(self, battery, *args)

    def recording_step(states, actions, renewables, quote, arrivals, params):
        steps.append((states, actions, renewables, quote, params))
        return real_step(states, actions, renewables, quote, arrivals, params)

    monkeypatch.setattr(ActionGrid, "decode_batch", recording_decode)
    monkeypatch.setattr(fuzz, "step", recording_step)
    tight[:] = [first_params] if first_params else []
    assert fuzz.fuzz_profit(300, seed=2).ok
    assert _bits(batteries) == _bits([s.battery_kwh for states, _ in drawn for s in states])
    assert [_step_bits(*args) for args in steps] == [_step_bits(*args) for args in want]


def test_fuzz_clearing_covers_every_station_count_and_control_pattern(monkeypatch):
    seen = []

    def recording(controls):
        seen.append(list(controls))
        return clear_trades(controls)

    monkeypatch.setattr(fuzz, "clear_trades", recording)
    assert fuzz.fuzz_clearing(1000, seed=0).ok
    assert len(seen) == 1000
    assert {len(c) for c in seen} == set(range(1, 7))
    # call k % 5: mixed, all charging, all discharging, one idle station, mixed
    assert all(x > 0.0 for c in seen[1::5] for x in c)
    assert all(x < 0.0 for c in seen[2::5] for x in c)
    assert all(c.count(0.0) == 1 for c in seen[3::5])
    mixed = seen[0::5] + seen[4::5]
    assert any(min(c) < 0.0 < max(c) for c in mixed)
    assert 0.0 not in [x for c in mixed for x in c]


def test_fuzz_profit_acts_on_decode_table_entries_at_every_station_count(monkeypatch):
    steps = []

    def recording(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(fuzz, "step", recording)
    assert fuzz.fuzz_profit(300, seed=2).ok
    assert len(steps) == 300
    assert {len(states) for states, *_ in steps} == {2, 3, 4}
    grid = ActionGrid()
    for states, actions, renewables, _, _, params in steps:
        for state, action, renewable in zip(states, actions, renewables):
            supplies, controls, mask = grid.decode_table(state, renewable, params)
            assert any(_bits(supplies[i]) == _bits(action.ev_supply)
                       and _bits(controls[i]) == _bits(action.ess_control)
                       for i in np.flatnonzero(mask))


def test_fuzz_clearing_catches_a_broken_split(monkeypatch):
    # Extra utility sale at the first station keeps every total and the
    # matched volumes, but breaks that station's sell split.
    def leaky(controls):
        out = clear_trades(controls)
        out.utility_sell[0] += 1.0
        return out

    monkeypatch.setattr(fuzz, "clear_trades", leaky)
    report = fuzz.fuzz_clearing(1000, seed=0)
    assert report.violations == report.calls == 1000
    assert len(report.notes) == 5
    assert all("sell split broken at 0" in note for note in report.notes)


def test_fuzz_profit_catches_a_total_that_moves_with_trade_price(monkeypatch):
    # The fuzzer prices each call a second time under another trade price;
    # a station profit that carries the trade price moves that sum.
    def priced(ev_supplies, trade, quote):
        out = profit(ev_supplies, trade, quote)
        out[0] += quote.trade
        return out

    monkeypatch.setattr(fuzz, "profit", priced)
    report = fuzz.fuzz_profit(200, seed=2)
    assert report.violations == report.calls == 200
    assert report.notes == [f"call {k}: total profit moved with trade price" for k in range(5)]


def test_fuzz_profit_catches_a_station_profit_that_step_gets_wrong(monkeypatch):
    def off(*args):
        out = step(*args)
        out.station_profit[1] += 1.0
        return out

    monkeypatch.setattr(fuzz, "step", off)
    report = fuzz.fuzz_profit(200, seed=2)
    assert report.violations == report.calls == 200
    assert report.notes == [f"call {k}: total != sum of stations; station profit mismatch at 1"
                            for k in range(5)]


def test_fuzz_battery_catches_controls_past_the_upper_bound(monkeypatch):
    real_decode = ActionGrid.decode_batch

    def shifted(self, *args):
        supplies, controls, mask, flows = real_decode(self, *args)
        return supplies, controls + 1.0, mask, flows

    monkeypatch.setattr(ActionGrid, "decode_batch", shifted)
    report = fuzz.fuzz_battery(200, seed=1)
    assert report.violations > 0
    # A battery past its ceiling means a control past its interval's top.
    assert all("control outside its interval" in note for note in report.notes)


def test_fuzz_battery_catches_bounds_that_forget_leakage(monkeypatch):
    # The fuzzer recomputes the interval and the unclamped next battery
    # itself, so it sees bounds that carry the full charge over a leaky slot
    # (a mutant in the decode's control_bounds_batch).
    assert fuzz.fuzz_battery(2000, seed=1).ok
    source = inspect.getsource(core.control_bounds_batch)
    leaky = "carried = params.leakage_beta * battery"
    assert source.count(leaky) == 1
    namespace = dict(vars(core))
    exec(source.replace(leaky, "carried = battery"), namespace)
    monkeypatch.setattr(core, "control_bounds_batch", namespace["control_bounds_batch"])
    report = fuzz.fuzz_battery(2000, seed=1)
    assert report.violations > 0
    assert "outside" in report.notes[0]


@pytest.mark.parametrize("calls", [1, 300])
def test_fuzz_battery_counts_calls_exactly(monkeypatch, calls):
    # The first block's params leave every row without a feasible action
    # (the floor is far above anything one slot's import cap can reach):
    # all of its rows are dropped and none counts.
    tight = iter([NO_FEASIBLE_ACTION])
    real_params, real_decode = fuzz._random_params, ActionGrid.decode_batch
    rows = []

    def counting_decode(self, *args):
        table = real_decode(self, *args)
        rows.append(int(table[2][:, 0].any(axis=1).sum()))   # rows with a feasible action
        return table

    monkeypatch.setattr(fuzz, "_random_params", lambda rng: next(tight, None) or real_params(rng))
    monkeypatch.setattr(ActionGrid, "decode_batch", counting_decode)
    report = fuzz.fuzz_battery(calls, seed=0)
    assert report.ok
    assert rows[0] == 0
    assert sum(rows) == report.calls == calls


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64).tolist()


def _scalar_battery_draws(calls, seed):
    """The battery fuzzer's draws, one row at a time, on scalar ``decode_table``.

    The same draws as ``fuzz_battery``: per block its params, one unused
    draw, its rows, then the pick of each row with a feasible action, which
    takes the pick-th feasible entry.  Returns each block's params and, per
    row, its state, renewable, ``decode_table`` and action index (the last
    two None where the row is dropped).  Every action goes through ``step``,
    which raises if it leaves its interval.
    """
    rng = np.random.default_rng(seed)
    grid = ActionGrid()
    k, blocks = 0, []
    while k < calls:
        params = fuzz._random_params(rng)
        rng.random()
        size = (min(fuzz._BATTERY_BLOCK, calls - k), 1)
        rows = []
        for battery, urgent, regular, renewable in zip(
                *(a[:, 0].tolist() for a in fuzz._random_state(rng, params, size))):
            state = StationState(battery, urgent, regular)
            try:
                table = grid.decode_table(state, renewable, params)
            except InfeasibleActionError:
                table = None
            rows.append([state, renewable, table, None])
        kept = [row for row in rows if row[2] is not None]
        counts = np.array([int(row[2][2].sum()) for row in kept], dtype=np.int64)
        for row, pick in zip(kept, rng.integers(counts).tolist()):
            supplies, controls, mask = row[2]
            row[3] = a = int(np.flatnonzero(mask)[pick])
            step([row[0]], [StationAction(supplies[a], controls[a])], [row[1]], QUOTE,
                 [(0.0, 0.0)], params)
        blocks.append((params, rows))
        k += len(kept)
    return blocks


def test_fuzz_battery_rows_match_scalar_decode_and_step(monkeypatch):
    # Every block decodes the rows a scalar loop over decode_table draws, bit
    # for bit, and every row takes the action the loop takes, one step
    # accepts.  The decode moves every other entry's control far outside its
    # interval, so the check passes only if each row takes exactly the
    # loop's action.  At this seed the first block drops one of its 200
    # rows, so a second block of one row follows.
    want = iter(_scalar_battery_draws(200, seed=59))
    real_decode = ActionGrid.decode_batch
    decoded, checked = [], []

    def marking_decode(self, battery, urgent, regular, renewable, params):
        supplies, controls, mask, flows = real_decode(self, battery, urgent, regular, renewable,
                                                      params)
        want_params, rows = next(want)
        assert params == want_params
        marked = controls + 1e3
        for r, (state, want_renewable, table, a) in enumerate(rows):
            assert _bits([battery[r, 0], urgent[r, 0], regular[r, 0], renewable[r, 0]]) == \
                _bits([state.battery_kwh, state.urgent_demand, state.regular_demand,
                       want_renewable])
            if table is None:
                assert not mask[r, 0].any()
                continue
            for batch_part, scalar_part in zip((supplies, controls, mask), table):
                assert _bits(batch_part[r, 0]) == _bits(scalar_part)
            marked[r, 0, a] = controls[r, 0, a]
            checked.append(r)
        decoded.append(len(rows))
        return supplies, marked, mask, flows

    monkeypatch.setattr(ActionGrid, "decode_batch", marking_decode)
    report = fuzz.fuzz_battery(200, seed=59)
    assert report.ok and report.calls == 200
    assert decoded == [200, 1]
    assert len(checked) == 200
