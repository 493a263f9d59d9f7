"""The array-native market path and the blocked oracle against their scalar references.

The array slot step (``ActionGrid.decode_batch`` with its flows, then the
two halves of settling: ``advance_stations_batch`` per station and
``clear_and_price_batch`` across stations) and the rollout's decode of only
the chosen action and its settled slot must agree with ``step``, ``settle``,
``blocks`` and ``decode_table`` bit for bit, and the blocked breadth-first
oracle with the depth-first enumeration it replaced (kept here as
``_dfs_search``) in optimum, action sequence and node count.  The market
relations at the end need no reference: permuting the stations permutes the
slot, on ``step``, ``settle`` and the columns of the array halves, and demand
is conserved.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evcoop import oracle
from evcoop.core import (
    ConstraintViolation,
    EssParams,
    PriceQuote,
    StationAction,
    StationState,
    advance_stations_batch,
    clear_and_price_batch,
    clear_trades,
    profit,
    settle,
    step,
)
from evcoop.data import Episode
from evcoop.marl import ActionGrid, ObsScales, TrainConfig, build_learner, rollout_episode
from evcoop.marl.encoding import InfeasibleActionError, linspace_at, linspace_rows


def assert_bits(actual, expected):
    """Equal as float64 bit patterns, so even the sign of a zero must agree."""
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


# -- strategies -------------------------------------------------------------

def edge_or(lo, hi):
    """Either end of [lo, hi] or anything between."""
    return st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi))


@st.composite
def ess_params(draw):
    cap = draw(st.floats(20.0, 300.0))
    caps = draw(st.sampled_from(["loose", "tight"]))
    return EssParams(
        capacity_max=cap,
        soc_min=draw(st.floats(0.02, 0.3)),
        soc_max=draw(st.floats(0.7, 1.0)),
        leakage_beta=draw(st.sampled_from([1.0, 0.99, 0.95])),
        export_cap=None if caps == "loose" else draw(st.floats(0.5, 30.0)),
        import_cap=None if caps == "loose" else draw(st.floats(0.5, 30.0)),
    )


grids = st.builds(
    ActionGrid,
    ev_fractions=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                          min_size=1, max_size=3).map(tuple),
    cs_levels=st.integers(1, 5),
)


@st.composite
def state_block(draw, params, rows, stations):
    """(battery, urgent, regular, renewable) arrays of shape (rows, stations)."""
    shape = (rows, stations)

    def block(strategy):
        return np.array(draw(st.lists(strategy, min_size=rows * stations,
                                      max_size=rows * stations))).reshape(shape)

    battery = block(edge_or(params.capacity_min, params.usable_max))
    urgent = block(edge_or(0.0, 20.0))
    regular = block(edge_or(0.0, 40.0))
    renewable = block(edge_or(0.0, 60.0))
    return battery, urgent, regular, renewable


@st.composite
def quotes(draw):
    u = draw(st.floats(0.03, 0.5))
    return PriceQuote(utility=u, ev=u * draw(st.floats(1.01, 2.0)),
                      trade=u * draw(st.floats(0.81, 0.99)), buyback=0.8 * u)


def scalar_states(battery, urgent, regular, r):
    return [StationState(battery[r, i], urgent[r, i], regular[r, i])
            for i in range(battery.shape[1])]


# -- linspace ---------------------------------------------------------------

widths = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 1e-300),
                   st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308]))


@settings(max_examples=500, deadline=None)
@given(st.floats(-1e3, 1e3), widths, st.integers(1, 7))
@example(lo=0.3, width=0.7, m=1)
@example(lo=-2.5, width=0.0, m=1)
@example(lo=-2.5, width=0.0, m=5)
@example(lo=0.1, width=5e-324, m=4)
def test_linspace_matches_numpy(lo, width, m):
    hi = lo + width
    want = np.linspace(lo, hi, m)
    block = (0.0, (0.0, 0.0, lo, hi))  # supply, (flow, cut, lo, hi)
    assert_bits([ActionGrid((0.0,), m).action([block], k).ess_control for k in range(m)], want)
    assert_bits([linspace_at(lo, hi, m, k) for k in range(m)], want)  # k = m - 1 included
    assert_bits(linspace_rows(np.array([lo, 1.0]), np.array([hi, 2.0]), m)[0], want)


# -- decode_batch vs decode_table -------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data(), ess_params(), grids, st.integers(1, 4), st.integers(1, 3))
def test_decode_batch_matches_decode_table(data, params, grid, rows, stations):
    battery, urgent, regular, renewable = data.draw(state_block(params, rows, stations))
    supplies, controls, mask, flows = grid.decode_batch(battery, urgent, regular, renewable,
                                                        params)
    shape = (rows, stations, grid.n_actions)
    assert supplies.shape == controls.shape == mask.shape == flows.shape == shape
    m = grid.cs_levels
    for r in range(rows):
        for i, state in enumerate(scalar_states(battery, urgent, regular, r)):
            try:
                want = grid.decode_table(state, renewable[r, i], params)
            except InfeasibleActionError:
                assert not mask[r, i].any()
                for table in (supplies, controls, flows):
                    assert_bits(table[r, i], np.zeros(grid.n_actions))
                continue
            assert_bits(supplies[r, i], want[0])
            assert_bits(controls[r, i], want[1])
            np.testing.assert_array_equal(mask[r, i], want[2])
            # Each entry's flow is its block's control_intervals flow, or zero where masked.
            blocks = grid.blocks(state, renewable[r, i], params)
            assert_bits(flows[r, i],
                        [0.0 if b is None else b[1][0] for b in blocks for _ in range(m)])


def test_decode_batch_zero_width_interval_and_masked_block():
    # Station 0: battery full, surplus renewable, export cap 5: after
    # curtailment the only control is "sell 5" (a zero-width interval).
    # Station 1: a 60 kWh deficit at full supply exceeds the import cap, so
    # the full-supply block is masked while the zero-supply block survives.
    params = EssParams(capacity_max=100.0, leakage_beta=1.0, export_cap=5.0, import_cap=5.0)
    grid = ActionGrid(ev_fractions=(0.0, 1.0), cs_levels=3)
    battery = np.array([[95.0, 5.0]])
    urgent = np.array([[0.0, 0.0]])
    regular = np.array([[0.0, 60.0]])
    renewable = np.array([20.0, 0.0])
    supplies, controls, mask, _ = grid.decode_batch(battery, urgent, regular, renewable, params)
    assert_bits(controls[0, 0], [-5.0] * 6)
    assert mask[0, 1].tolist() == [True] * 3 + [False] * 3
    for i in range(2):
        want = grid.decode_table(StationState(battery[0, i], 0.0, regular[0, i]),
                                 renewable[i], params)
        assert_bits(supplies[0, i], want[0])
        assert_bits(controls[0, i], want[1])


# -- the rollout's chosen-action decode vs decode_table ----------------------

def outcome_floats(outcome):
    """Every float of a StepOutcome, in field order."""
    def flat(value):
        return [x for v in value for x in flat(v)] if isinstance(value, (list, tuple)) else [value]

    return flat(dataclasses.astuple(outcome))


def check_rollout_decode(params, grid, states, renewables, seed, arrivals=None):
    """One exploring rollout slot over ``states`` against ``decode_table`` and ``step``.

    The slot's mask row and every station's chosen StationAction must be
    ``decode_table``'s, bit for bit; where ``decode_table`` raises, the
    rollout raises the same error with the same message.  Every entry of
    every station also goes through ``ActionGrid.action`` on its own.  The
    slot's StepOutcome must be scalar ``step``'s on the same states,
    actions, renewables, quote and ``arrivals`` (zero by default), bit for
    bit; where ``step`` raises, the rollout raises the same error.
    """
    n = len(states)
    zero = [(0.0, 0.0)] * n
    arrivals = zero if arrivals is None else [tuple(a) for a in arrivals]
    learner = build_learner("independent_dqn", n, params, grid, ObsScales(),
                            TrainConfig(hidden_dim=4), np.random.default_rng(seed))
    quote = PriceQuote(utility=0.10, ev=0.12, trade=0.09, buyback=0.08)

    def rollout(arrivals):
        episode = Episode(quotes=(quote,), renewables=(tuple(renewables),),
                          arrivals=(tuple(arrivals),), initial_states=tuple(states))
        return rollout_episode(episode, learner, 1.0, np.random.default_rng(seed),
                               collect_trace=True)

    def assert_same_error(exc, arrivals):
        with pytest.raises(ValueError) as raised:
            rollout(arrivals)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)

    try:
        tables = [grid.decode_table(s, r, params) for s, r in zip(states, renewables)]
    except (ConstraintViolation, InfeasibleActionError) as exc:
        assert_same_error(exc, arrivals)
        return
    # The arrivals only reach the next slot's states, so a one-slot rollout on
    # zero arrivals takes the actions a rollout on ``arrivals`` takes.
    record, trace = rollout(zero)
    np.testing.assert_array_equal(record.masks[0], [mask for _, _, mask in tables])
    for i, (supplies, controls, mask) in enumerate(tables):
        chosen = trace[0].actions[i]
        a = record.actions[0, i]
        assert_bits([chosen.ev_supply, chosen.ess_control], [supplies[a], controls[a]])
        blocks = grid.blocks(states[i], renewables[i], params)
        for index in range(grid.n_actions):
            if not mask[index]:
                with pytest.raises(InfeasibleActionError, match="masked infeasible"):
                    grid.action(blocks, index)
                continue
            action = grid.action(blocks, index)
            assert_bits([action.ev_supply, action.ess_control],
                        [supplies[index], controls[index]])
    try:
        want = step(states, trace[0].actions, renewables, quote, arrivals, params)
    except ConstraintViolation as exc:
        assert_same_error(exc, arrivals)
        return
    _, trace = rollout(arrivals)
    assert_bits(outcome_floats(trace[0].outcome), outcome_floats(want))


@settings(max_examples=300, deadline=None)
@given(st.data(), ess_params(), grids, st.integers(1, 3),
       st.sampled_from([None, "battery", "urgent", "regular", "renewable", "arrival"]),
       st.sampled_from([math.nan, math.inf]))
def test_rollout_decodes_the_chosen_action_as_decode_table_does(data, params, grid, stations,
                                                                poison, bad):
    battery, urgent, regular, renewable = data.draw(state_block(params, 1, stations))
    arrivals = np.array(data.draw(st.lists(st.tuples(edge_or(0.0, 6.0), edge_or(0.0, 12.0)),
                                           min_size=stations, max_size=stations)))
    station = data.draw(st.integers(0, stations - 1))
    if poison == "arrival":             # a NaN, an inf or a negative arrival
        arrivals[station, data.draw(st.integers(0, 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -1.0]))
    elif poison is not None:
        {"battery": battery, "urgent": urgent, "regular": regular,
         "renewable": renewable}[poison][0, station] = bad
    check_rollout_decode(params, grid, scalar_states(battery, urgent, regular, 0),
                         renewable[0].tolist(), data.draw(st.integers(0, 2**32 - 1)),
                         arrivals.tolist())


def test_rollout_decode_zero_width_interval_masked_block_and_no_feasible_action():
    # The stations of test_decode_batch_zero_width_interval_and_masked_block,
    # then a third whose urgent deficit no control can cover.
    params = EssParams(capacity_max=100.0, leakage_beta=1.0, export_cap=5.0, import_cap=5.0)
    states = [StationState(95.0, 0.0, 0.0), StationState(5.0, 0.0, 60.0)]
    for grid in (ActionGrid(ev_fractions=(0.0, 1.0), cs_levels=3),
                 ActionGrid(ev_fractions=(1.0,), cs_levels=1)):
        for seed in range(4):
            check_rollout_decode(params, grid, states, [20.0, 0.0], seed)
        check_rollout_decode(params, grid, [*states, StationState(5.0, 60.0, 0.0)],
                             [20.0, 0.0, 0.0], 0)


# -- the array slot step vs step and settle --------------------------------

ACTION_MODES = ("grid", "between", "zero", "charge", "discharge")


@st.composite
def feasible_actions(draw, grid, params, battery, urgent, regular, renewable):
    """(supply, control, flow) arrays, every station inside its feasible interval.

    Each station takes a feasible block of ``grid.blocks``: its supply and
    internal flow, and a control in its interval.  ``charge``/``discharge``
    put every station at the top/bottom of its interval, so a draw is
    all-charging or all-discharging whenever the intervals allow it;
    ``zero`` holds the battery idle where zero is feasible.
    """
    mode = draw(st.sampled_from(ACTION_MODES))
    supply, control, flow = (np.empty_like(battery) for _ in range(3))
    for r in range(battery.shape[0]):
        for i, state in enumerate(scalar_states(battery, urgent, regular, r)):
            try:
                blocks = grid.blocks(state, renewable[r, i], params)
            except InfeasibleActionError:
                return None
            a = draw(st.sampled_from([e * grid.cs_levels + c for e, b in enumerate(blocks)
                                      if b is not None for c in range(grid.cs_levels)]))
            supply[r, i], (flow[r, i], _, lo, hi) = blocks[a // grid.cs_levels]
            control[r, i] = {
                "grid": grid.action(blocks, a).ess_control,
                "between": lo + draw(st.floats(0.0, 1.0)) * (hi - lo),
                "zero": min(max(0.0, lo), hi),
                "charge": hi,
                "discharge": lo,
            }[mode]
    return supply, control, flow


@settings(max_examples=300, deadline=None)
@given(st.data(), ess_params(), grids, quotes(), st.integers(1, 3), st.integers(1, 10))
def test_advance_and_clear_batch_match_step(data, params, grid, quote, rows, stations):
    # advance_stations_batch on each block's flow, then clear_and_price_batch,
    # for controls anywhere in their interval, on or off the grid.
    battery, urgent, regular, renewable = data.draw(state_block(params, rows, stations))
    actions = data.draw(feasible_actions(grid, params, battery, urgent, regular, renewable))
    if actions is None:
        return                      # some station has no feasible action at all
    supply, control, flow = actions
    arrivals = [tuple(data.draw(st.tuples(edge_or(0.0, 6.0), edge_or(0.0, 12.0))))
                for _ in range(stations)]
    nb, nu, nr = advance_stations_batch(battery, urgent, regular, supply, control, flow,
                                        arrivals, params)
    total = clear_and_price_batch(supply.T, control.T, quote)
    for r in range(rows):
        acts = [StationAction(supply[r, i], control[r, i]) for i in range(stations)]
        out = step(scalar_states(battery, urgent, regular, r), acts, list(renewable[r]),
                   quote, arrivals, params)
        assert_bits(nb[r], [s.battery_kwh for s in out.next_states])
        assert_bits(nu[r], [s.urgent_demand for s in out.next_states])
        assert_bits(nr[r], [s.regular_demand for s in out.next_states])
        assert_bits(total[r], out.profit.total_profit)


@settings(max_examples=300, deadline=None)
@given(st.data(), ess_params(), grids, quotes(), st.integers(1, 3), st.integers(1, 10))
def test_clear_and_price_batch_matches_step(data, params, grid, quote, rows, stations):
    battery, urgent, regular, renewable = data.draw(state_block(params, rows, stations))
    actions = data.draw(feasible_actions(grid, params, battery, urgent, regular, renewable))
    if actions is None:
        return
    supply, control, _ = actions
    total = clear_and_price_batch(supply.T, control.T, quote)
    assert total.shape == (rows,)
    for r in range(rows):
        acts = [StationAction(supply[r, i], control[r, i]) for i in range(stations)]
        out = step(scalar_states(battery, urgent, regular, r), acts, list(renewable[r]),
                   quote, [(0.0, 0.0)] * stations, params)
        assert_bits(total[r], out.profit.total_profit)


def test_clear_and_price_batch_matches_clear_trades_on_ties_idle_and_signed_zeros():
    # Decoded controls seldom tie or sit on a zero; these hand-built ones do.
    # Every row of up to three stations over values whose sums are exact, so
    # charge_total == discharge_total happens often, next to idle stations
    # and controls of +0.0 and -0.0.
    quote = PriceQuote(utility=0.13, ev=0.156, trade=0.117, buyback=0.104)
    values = (-3.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 0.1, -0.3)
    ties = 0
    for n in (1, 2, 3):
        control = np.array(list(itertools.product(values, repeat=n)))
        supply = np.resize(np.array([0.0, 2.5, 7.25, 1e-3, 4.0]), control.shape)
        total = clear_and_price_batch(supply.T, control.T, quote)
        for row_supply, row_control, got in zip(supply.tolist(), control.tolist(), total):
            trade = clear_trades(row_control)
            ties += trade.charge_total == trade.discharge_total > 0.0
            assert_bits(got, profit(row_supply, trade, quote).total_profit)
    assert ties > 50


QUOTE = PriceQuote(utility=0.10, ev=0.12, trade=0.09, buyback=0.08)


def oracle_table(grid, params, battery, urgent, regular, renewable, arrivals):
    """The oracle's slot: the (rows, A, n) decoded table and its next states."""
    supply, control, mask, flow = (a.transpose(0, 2, 1) for a in
                                   grid.decode_batch(battery, urgent, regular, renewable, params))
    next_states = advance_stations_batch(battery[:, None], urgent[:, None], regular[:, None],
                                         supply, control, flow, arrivals, params)
    return mask, next_states


@settings(max_examples=200, deadline=None)
@given(st.data(), ess_params(), grids, st.integers(1, 3), st.integers(1, 4))
def test_advance_stations_batch_on_masked_tables_matches_step(data, params, grid, rows,
                                                              stations):
    # The oracle's layout: (rows, A, n) decoded tables against (rows, 1, n)
    # states.  At every entry the mask admits, the next state is the one
    # scalar blocks, action and settle give the station on its own.
    battery, urgent, regular, renewable = data.draw(state_block(params, rows, stations))
    arrivals = [tuple(data.draw(st.tuples(edge_or(0.0, 6.0), edge_or(0.0, 12.0))))
                for _ in range(stations)]
    mask, (nb, nu, nr) = oracle_table(grid, params, battery, urgent, regular, renewable,
                                      arrivals)
    assert nb.shape == nu.shape == nr.shape == mask.shape
    for r in range(rows):
        for i, state in enumerate(scalar_states(battery, urgent, regular, r)):
            if not mask[r, :, i].any():
                continue                # no feasible action: blocks raises, the oracle prunes
            blocks = grid.blocks(state, renewable[r, i], params)
            for a in np.flatnonzero(mask[r, :, i]):
                out = settle([state], [grid.action(blocks, a)],
                             [blocks[a // grid.cs_levels][1]], QUOTE, [arrivals[i]], params)
                want = out.next_states[0]
                assert_bits([nb[r, a, i], nu[r, a, i], nr[r, a, i]],
                            [want.battery_kwh, want.urgent_demand, want.regular_demand])


@settings(max_examples=200, deadline=None)
@given(st.data(), ess_params(), grids, st.integers(1, 4),
       st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0]))
def test_advance_stations_batch_rejects_the_arrivals_settle_rejects(data, params, grid,
                                                                    stations, bad):
    battery, urgent, regular, renewable = data.draw(state_block(params, 1, stations))
    states = scalar_states(battery, urgent, regular, 0)
    try:
        blocks = [grid.blocks(s, e, params) for s, e in zip(states, renewable[0])]
    except InfeasibleActionError:
        return
    arrivals = [list(data.draw(st.tuples(edge_or(0.0, 6.0), edge_or(0.0, 12.0))))
                for _ in range(stations)]
    for _ in range(data.draw(st.integers(1, 2))):
        arrivals[data.draw(st.integers(0, stations - 1))][data.draw(st.integers(0, 1))] = bad
    first = [next(e * grid.cs_levels for e, b in enumerate(bl) if b is not None) for bl in blocks]
    try:
        settle(states, [grid.action(bl, a) for bl, a in zip(blocks, first)],
               [bl[a // grid.cs_levels][1] for bl, a in zip(blocks, first)], QUOTE, arrivals,
               params)
    except ConstraintViolation as exc:
        with pytest.raises(type(exc)) as raised:
            oracle_table(grid, params, battery, urgent, regular, renewable, arrivals)
        assert str(raised.value) == str(exc)
    else:
        assert bad == 0.0           # -0.0 is a valid arrival
        oracle_table(grid, params, battery, urgent, regular, renewable, arrivals)


def test_advance_and_clear_batch_all_charging_and_all_discharging_rows():
    params = EssParams(capacity_max=100.0, leakage_beta=1.0)
    battery = np.full((3, 3), 50.0)
    zeros = np.zeros((3, 3))
    control = np.array([[10.0, 30.0, 5.0],      # everyone buys: all from the utility
                        [-10.0, -30.0, -5.0],   # everyone sells: all to the utility
                        [0.0, 0.0, 0.0]])       # idle
    arrivals = [(0.0, 0.0)] * 3
    total = clear_and_price_batch(zeros.T, control.T, QUOTE)
    nb, _, _ = advance_stations_batch(battery, zeros, zeros, zeros, control, zeros, arrivals,
                                      params)
    for r in range(3):
        out = step(scalar_states(battery, zeros, zeros, r),
                   [StationAction(0.0, c) for c in control[r]], [0.0] * 3, QUOTE,
                   arrivals, params)
        assert_bits(total[r], out.profit.total_profit)
        assert_bits(nb[r], [s.battery_kwh for s in out.next_states])
    assert total.tolist() == pytest.approx([-4.5, 3.6, 0.0])


@pytest.mark.parametrize("case", ["arrival"])
def test_advance_stations_batch_rejects_what_step_rejects(case):
    # Station 1 is bad, station 0 fine.  Of the array path's inputs only the
    # arrivals can still be bad: an action it settles is one decode_batch built.
    params = EssParams(capacity_max=100.0, import_cap=5.0)
    arrival = {"arrival": (-1.0, 0.0)}[case]
    with pytest.raises(ConstraintViolation, match="station 1") as scalar:
        step([StationState(50.0, 5.0, 5.0)] * 2, [StationAction(5.0, 0.0)] * 2, [0.0, 0.0],
             QUOTE, [(0.0, 0.0), arrival], params)
    block = np.array([[50.0, 50.0], [50.0, 50.0]])
    with pytest.raises(type(scalar.value)) as batch:
        oracle_table(ActionGrid(), params, block, block / 10, block / 10, [0.0, 0.0],
                     [(0.0, 0.0), arrival])
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("field, where", [
    ("battery_kwh", "battery"), ("urgent_demand", "urgent"), ("regular_demand", "regular"),
    ("renewable", "renewable"), ("arrival_urgent", "arrival"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_decode_and_advance_batch_reject_non_finite_inputs(field, where, bad):
    # decode_batch rejects a bad state, advance_stations_batch a bad arrival.
    arrays = {"battery": np.full((2, 2), 100.0), "urgent": np.zeros((2, 2)),
              "regular": np.zeros((2, 2)), "renewable": np.zeros((2, 2))}
    arrivals = np.zeros((2, 2))
    if where == "arrival":
        arrivals[1, 0] = bad
    else:
        arrays[where][1, 1] = bad
    with pytest.raises(ConstraintViolation, match=f"station 1: {field}"):
        oracle_table(ActionGrid(), EssParams(), arrays["battery"], arrays["urgent"],
                     arrays["regular"], arrays["renewable"], arrivals)


def test_decode_batch_rejects_non_finite_state():
    grid = ActionGrid()
    battery = np.array([[100.0, math.nan]])
    with pytest.raises(ConstraintViolation, match="station 1: battery_kwh"):
        grid.decode_batch(battery, np.zeros((1, 2)), np.zeros((1, 2)), [0.0, 0.0], EssParams())


@pytest.mark.parametrize("field", ["urgent_demand", "regular_demand", "renewable"])
def test_decode_batch_names_the_station_field_and_row_of_a_negative_input(field):
    arrays = {name: np.zeros((3, 2)) for name in ("urgent_demand", "regular_demand",
                                                   "renewable")}
    arrays[field][2, 1] = -0.5
    arrays[field][0, 0] = -0.0          # a negative zero is not negative
    with pytest.raises(ConstraintViolation,
                       match=rf"^station 1: {field} -0.5 is negative \(row 2\)$"):
        ActionGrid().decode_batch(np.full((3, 2), 100.0), arrays["urgent_demand"],
                                  arrays["regular_demand"], arrays["renewable"], EssParams())
    arrays[field][2, 1] = 0.0
    ActionGrid().decode_batch(np.full((3, 2), 100.0), arrays["urgent_demand"],
                              arrays["regular_demand"], arrays["renewable"], EssParams())


# -- blocked breadth-first oracle vs the depth-first enumeration ------------

def _dfs_search(episode, params, grid, start_states, t_start, depth, visited=None):
    """The oracle's former depth-first search, on scalar ``step``/``decode_table``.

    Appends each evaluated node, as a ``_node`` tuple, to ``visited`` if given.
    """
    best = [-math.inf, (), 0]

    def options(states, renewables):
        out = []
        for i, state in enumerate(states):
            supplies, controls, mask = grid.decode_table(state, renewables[i], params)
            out.append((supplies, controls, np.flatnonzero(mask)))
        return out

    def recurse(t, states, acc, prefix):
        if t == t_start + depth:
            if acc > best[0]:
                best[0], best[1] = acc, prefix
            return
        try:
            opts = options(states, episode.renewables[t])
        except InfeasibleActionError:
            return
        for combo in itertools.product(*(o[2] for o in opts)):
            actions = [StationAction(opts[i][0][a], opts[i][1][a]) for i, a in enumerate(combo)]
            out = step(list(states), actions, list(episode.renewables[t]), episode.quotes[t],
                       list(episode.arrivals[t]), params)
            best[2] += 1
            if visited is not None:
                visited.append(_node(t, [s.battery_kwh for s in states],
                                     [s.urgent_demand for s in states],
                                     [s.regular_demand for s in states],
                                     [a.ev_supply for a in actions],
                                     [a.ess_control for a in actions]))
            recurse(t + 1, out.next_states, acc + out.profit.total_profit,
                    prefix + (tuple(int(a) for a in combo),))

    recurse(t_start, list(start_states), 0.0, ())
    return best[0], best[1], best[2]


def _node(t, *columns):
    return (t,) + tuple(float(v) for column in columns for v in column)


def _dfs_rolling_greedy(instance, lookahead):
    ep, params, grid = instance.episode, instance.params, instance.grid
    states = list(ep.initial_states)
    total, taken = 0.0, []
    for t in range(ep.length):
        best, seq, _ = _dfs_search(ep, params, grid, states, t, min(lookahead, ep.length - t))
        if best == -math.inf:
            raise InfeasibleActionError("no feasible joint action sequence")
        actions = [grid.action(grid.blocks(states[i], ep.renewables[t][i], params), a)
                   for i, a in enumerate(seq[0])]
        out = step(states, actions, list(ep.renewables[t]), ep.quotes[t],
                   list(ep.arrivals[t]), params)
        total += out.profit.total_profit
        states = list(out.next_states)
        taken.append(seq[0])
    return total, tuple(taken)


def _draws(count, seed, shapes=((2, 2), (1, 3), (3, 1), (2, 1))):
    """Tiny instances of one to three stations, sized to keep the DFS quick.

    ``shapes`` cycles (stations, slots).  Every other instance gets a battery
    of 4-12 kWh and import/export caps of a few kWh, so masks differ from row
    to row and some branches are pruned.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(count):
        inst = oracle.random_tiny_instance(rng, *shapes[k % len(shapes)])
        if k % 2:
            cap, export_cap, import_cap = rng.uniform((4.0, 0.5, 0.5), (12.0, 4.0, 4.0))
            params = dataclasses.replace(inst.params, capacity_max=cap,
                                         export_cap=export_cap, import_cap=import_cap)
            states = tuple(dataclasses.replace(
                s, battery_kwh=rng.uniform(params.capacity_min, params.usable_max))
                for s in inst.episode.initial_states)
            inst = dataclasses.replace(inst, params=params, episode=dataclasses.replace(
                inst.episode, initial_states=states))
        draws.append(inst)
    return draws


def _outcome(fn, *args):
    """``fn(*args)``, or the marker of an InfeasibleActionError it raised."""
    try:
        return fn(*args)
    except InfeasibleActionError:
        return "infeasible"


def _assert_same_as_dfs(inst):
    ep = inst.episode
    ref = _dfs_search(ep, inst.params, inst.grid, ep.initial_states, 0, ep.length)
    exact = _outcome(oracle.brute_force, inst)
    if ref[0] == -math.inf:
        assert exact == "infeasible"
        return
    assert (exact.profit, exact.actions, exact.nodes) == ref
    for lookahead in sorted({1, ep.length}):
        assert _outcome(oracle.rolling_greedy, inst, lookahead) == \
            _outcome(_dfs_rolling_greedy, inst, lookahead)


def test_oracle_matches_depth_first_reference():
    # Three stations over two slots gather next states from a three-wide table.
    for inst in _draws(52, seed=5) + _draws(4, seed=9, shapes=[(3, 2)]):
        _assert_same_as_dfs(inst)


@pytest.mark.parametrize("block_rows", [1, 3, 7, 40])
def test_oracle_blocks_keep_lexicographic_ties(monkeypatch, block_rows):
    # Blocks smaller than one parent's children, and blocks straddling
    # parents, must still visit leaves in the depth-first order.
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", block_rows)
    for inst in _draws(8, seed=6):
        _assert_same_as_dfs(inst)


@pytest.mark.parametrize("block_rows", [5, 64])
def test_oracle_blocks_never_pass_more_rows_than_the_block_size(monkeypatch, block_rows):
    # One 3-station slot on the default 15-action grid gives its one row
    # 3,375 joint actions, more than a block holds; no _children or _leaves
    # call may price more pairs than a block, no _slot call may decode a
    # larger table, and the optimum must not change.
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", block_rows)
    sizes, tables = [], []
    children, leaves, slot = oracle._children, oracle._leaves, oracle._slot

    def recording_children(episode, slot, cells):
        sizes.append(cells.shape[1])
        return children(episode, slot, cells)

    def recording_leaves(episode, slot, cells, feasible):
        sizes.append(feasible.size)
        return leaves(episode, slot, cells, feasible)

    def recording_slot(episode, params, grid, t, state, last):
        tables.append(len(state[0]))
        return slot(episode, params, grid, t, state, last)

    monkeypatch.setattr(oracle, "_children", recording_children)
    monkeypatch.setattr(oracle, "_leaves", recording_leaves)
    monkeypatch.setattr(oracle, "_slot", recording_slot)
    wide = oracle.random_tiny_instance(np.random.default_rng(3), station_count=3, horizon=1,
                                       grid=ActionGrid())
    for inst in [wide] + _draws(4, seed=7):
        sizes.clear()
        tables.clear()
        _assert_same_as_dfs(inst)
        assert sizes and max(sizes) <= block_rows
        assert tables and max(tables) <= block_rows
    assert wide.grid.n_actions ** 3 > block_rows


def test_brute_force_memory_stays_bounded_on_a_deep_search():
    # One station over ten slots on a 4-action grid: about 1.4 million
    # nodes, whose frontiers reach 262,144 rows.  The depth-first walk over
    # blocks keeps the traced peak to a few MB (2.5 MB measured); a search
    # that kept a whole slot level's table at once peaked at 63 MB.
    inst = oracle.random_tiny_instance(np.random.default_rng(5), station_count=1, horizon=10,
                                       grid=ActionGrid((0.0, 1.0), 2))
    tracemalloc.start()
    try:
        oracle.brute_force(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("horizon", [1, 3])
def test_brute_force_checks_the_arrivals_of_its_last_slot(horizon):
    # The search reads no next state of its last slot, but its arrivals are
    # checked as settle checks them.
    inst = oracle.random_tiny_instance(np.random.default_rng(1), horizon=horizon)
    arrivals = list(inst.episode.arrivals)
    arrivals[-1] = ((math.nan, 1.0),) + arrivals[-1][1:]
    inst = dataclasses.replace(inst, episode=dataclasses.replace(inst.episode,
                                                                 arrivals=tuple(arrivals)))
    with pytest.raises(ConstraintViolation, match="station 0: arrival_urgent nan is not finite"):
        oracle.brute_force(inst)


def test_replaying_a_rollout_settles_the_same_episode_bit_for_bit():
    # The learner's rollout and replay_sequence are two choosers over one
    # episode loop: replaying the actions a rollout took must give its total
    # and per-station profits to the bit, also where tight caps mask actions.
    replayed = masked = 0
    for k, inst in enumerate(_draws(60, seed=13)):
        ep = inst.episode
        learner = build_learner("double_qmix", ep.station_count, inst.params, inst.grid,
                                ObsScales(), TrainConfig(hidden_dim=4, embed_dim=2, hyper_hidden=4),
                                np.random.default_rng(k))
        try:
            record, _ = rollout_episode(ep, learner, 0.5, np.random.default_rng(k))
        except InfeasibleActionError:
            continue
        total, split = oracle.replay_sequence(inst, tuple(map(tuple, record.actions.tolist())))
        assert_bits(total, sum(record.total_profits))
        assert_bits(split, sum(record.station_profits))
        replayed += 1
        masked += not record.masks.all()
    assert replayed >= 50 and masked >= 5


def test_oracle_evaluates_every_node_once(monkeypatch):
    # The same (slot, state, action) nodes as the depth-first search, each
    # as often, whatever the block size: no child dropped or duplicated.
    # A leaf block prices masked pairs too; only its feasible ones are nodes.
    visited = []
    children, leaves = oracle._children, oracle._leaves

    def record(slot, cells):
        # A cell is (station * U + table entry) * A + action.
        n, entries, actions = slot.mask.shape
        stations = np.arange(n)[:, None]
        entry = cells // actions - stations * entries
        columns = [field[entry, stations] for field in slot.state]
        columns += list(slot.table[:2].reshape(2, -1)[:, cells])
        visited.extend(_node(slot.t, *row) for row in zip(*(c.T for c in columns)))

    def recording_children(episode, slot, cells):
        record(slot, cells)
        return children(episode, slot, cells)

    def recording_leaves(episode, slot, cells, feasible):
        record(slot, cells[:, feasible])
        return leaves(episode, slot, cells, feasible)

    monkeypatch.setattr(oracle, "_children", recording_children)
    monkeypatch.setattr(oracle, "_leaves", recording_leaves)
    for block_rows in (5, 64):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", block_rows)
        for inst in _draws(4, seed=7):
            visited.clear()
            oracle.brute_force(inst)
            want = []
            ep = inst.episode
            _dfs_search(ep, inst.params, inst.grid, ep.initial_states, 0, ep.length, want)
            assert sorted(visited) == sorted(want)


@pytest.mark.parametrize("block_rows", [1, 2, 512])
def test_oracle_ties_keep_the_lexicographically_first_sequence(monkeypatch, block_rows):
    # Two stations with 56 kWh above their floor each must serve 56 kWh of
    # urgent demand in slot 1.  In slot 0, idling (1, 1) ties with station 0
    # selling its charge to station 1 (0, 2) and the reverse (2, 0): the
    # energy comes back in slot 1 and every price is a power of two, so the
    # three totals are equal to the bit.  The first in lexicographic order
    # must win, at any block size.
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", block_rows)
    params = EssParams(capacity_max=128.0, soc_min=0.0625, soc_max=0.9375, leakage_beta=1.0)
    quote = PriceQuote(utility=0.125, ev=0.25, trade=0.09375, buyback=0.0625)
    episode = Episode(quotes=(quote,) * 2, renewables=((0.0, 0.0),) * 2,
                      arrivals=(((56.0, 0.0),) * 2, ((0.0, 0.0),) * 2),
                      initial_states=(StationState(64.0, 0.0, 0.0),) * 2)
    inst = oracle.TinyInstance(episode=episode, params=params,
                               grid=ActionGrid(ev_fractions=(0.0,), cs_levels=3))
    exact = oracle.brute_force(inst)
    assert exact.actions == ((0, 2), (0, 0))
    for tied in (((1, 1), (0, 0)), ((2, 0), (0, 0))):
        assert oracle.replay_sequence(inst, tied)[0] == exact.profit == 28.0
    ref = _dfs_search(episode, params, inst.grid, episode.initial_states, 0, 2)
    assert (exact.profit, exact.actions, exact.nodes) == ref


def test_oracle_never_picks_a_masked_leaf():
    # One station at its battery floor with regular demand above its import
    # cap: supplying all of it needs (1 - beta) * capacity_min + regular from
    # the utility, so the full-supply block is masked, and its placeholder
    # entries (supply 0, control 0) would earn 0.  Every feasible leaf buys
    # at least (1 - beta) * capacity_min and earns less than 0, so a masked
    # pair priced with the rest of its leaf block must never win.
    params = EssParams(capacity_max=100.0, leakage_beta=0.9, import_cap=2.0)
    quote = PriceQuote(utility=0.125, ev=0.25, trade=0.09375, buyback=0.0625)
    episode = Episode(quotes=(quote,), renewables=((0.0,),), arrivals=(((0.0, 0.0),),),
                      initial_states=(StationState(params.capacity_min, 0.0, 4.0),))
    inst = oracle.TinyInstance(episode=episode, params=params,
                               grid=ActionGrid(ev_fractions=(0.0, 1.0)))
    _, _, mask = inst.grid.decode_table(episode.initial_states[0], 0.0, params)
    assert mask.tolist() == [True] * 5 + [False] * 5
    exact = oracle.brute_force(inst)
    assert exact.profit < 0.0
    ref = _dfs_search(episode, params, inst.grid, episode.initial_states, 0, 1)
    assert (exact.profit, exact.actions, exact.nodes) == ref


# -- market relations on step, the rollout's settle and the array halves -----

@settings(max_examples=300, deadline=None)
@given(st.data(), ess_params(), grids, quotes(), st.integers(2, 6))
def test_permuting_stations_permutes_the_slot_and_demand_is_conserved(data, params, grid,
                                                                      quote, stations):
    # Actions decoded as a rollout decodes them, settled by step and by settle.
    battery, urgent, regular, renewable = data.draw(state_block(params, 1, stations))
    states, renewables = scalar_states(battery, urgent, regular, 0), renewable[0].tolist()
    try:
        blocks = [grid.blocks(s, r, params) for s, r in zip(states, renewables)]
    except InfeasibleActionError:
        return
    m = grid.cs_levels
    picks = [data.draw(st.sampled_from([e * m + c for e, b in enumerate(bl) if b is not None
                                        for c in range(m)])) for bl in blocks]
    actions = [grid.action(bl, a) for bl, a in zip(blocks, picks)]
    intervals = [bl[a // m][1] for bl, a in zip(blocks, picks)]
    arrivals = data.draw(st.lists(st.tuples(edge_or(0.0, 6.0), edge_or(0.0, 12.0)),
                                  min_size=stations, max_size=stations))
    perm = data.draw(st.permutations(range(stations)))

    def permuted(values):
        return [values[j] for j in perm]

    def next_states(out):
        return [(s.battery_kwh, s.urgent_demand, s.regular_demand) for s in out.next_states]

    base = step(states, actions, renewables, quote, arrivals, params)
    assert_bits(outcome_floats(settle(states, actions, intervals, quote, arrivals, params)),
                outcome_floats(base))
    for out in (step(permuted(states), permuted(actions), permuted(renewables), quote,
                     permuted(arrivals), params),
                settle(permuted(states), permuted(actions), permuted(intervals), quote,
                       permuted(arrivals), params)):
        # Each station's own results move with it exactly ...
        assert_bits(next_states(out), permuted(next_states(base)))
        assert_bits(out.curtailed_kwh, permuted(base.curtailed_kwh))
        # ... but clearing sums the stations in order, so profits may move in
        # the last bits.
        for got, want in zip([*out.profit.station_profit, out.profit.total_profit],
                             [*permuted(base.profit.station_profit), base.profit.total_profit]):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    for state, act, (arr_urgent, arr_regular), (_, next_urgent, next_regular) in zip(
            states, actions, arrivals, next_states(base)):
        assert next_urgent + next_regular == pytest.approx(
            arr_urgent + arr_regular + state.total_demand - act.ev_supply, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.data(), ess_params(), grids, quotes(), st.integers(1, 3), st.integers(2, 6))
def test_permuting_advance_and_clear_batch_columns_permutes_each_row(data, params, grid,
                                                                     quote, rows, stations):
    # The same relation on the array halves, whose columns are the stations.
    battery, urgent, regular, renewable = data.draw(state_block(params, rows, stations))
    actions = data.draw(feasible_actions(grid, params, battery, urgent, regular, renewable))
    if actions is None:
        return                      # some station has no feasible action at all
    arrivals = data.draw(st.lists(st.tuples(edge_or(0.0, 6.0), edge_or(0.0, 12.0)),
                                  min_size=stations, max_size=stations))
    perm = data.draw(st.permutations(range(stations)))
    columns = (battery, urgent, regular, *actions)

    def slot(columns, arrivals):
        supply, control = columns[3:5]
        return (advance_stations_batch(*columns, arrivals, params),
                clear_and_price_batch(supply.T, control.T, quote))

    base, total = slot(columns, arrivals)
    got, got_total = slot([c[:, perm] for c in columns], [arrivals[j] for j in perm])
    # next battery, urgent and regular demand move with their stations exactly ...
    for got_column, base_column in zip(got, base):
        assert_bits(got_column, base_column[:, perm])
    # ... and each row's total agrees within rounding (stations are summed in order).
    assert (np.abs(got_total - total) <= 1e-12 * np.maximum(1.0, np.abs(total))).all()
