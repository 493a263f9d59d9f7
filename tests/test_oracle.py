"""Exhaustive planner: exact optimum, rolling greedy, instance hygiene."""

import dataclasses

import numpy as np
import pytest

from evcoop import oracle
from evcoop.core import EssParams, PriceQuote, StationState
from evcoop.data import Episode
from evcoop.marl import ActionGrid, InfeasibleActionError
from evcoop.oracle import (
    BudgetExceededError,
    TinyInstance,
    brute_force,
    random_tiny_instance,
    replay_sequence,
    rolling_greedy,
)


def _arbitrage_instance():
    """One station, two slots, cheap then expensive power, no demand.

    The only money on the table is storage arbitrage: buy 10 kWh at 0.05,
    sell it at the 0.40 buyback next slot.  Optimum is 10 * 0.40 - 10 * 0.05.
    """
    params = EssParams(capacity_max=100.0, soc_min=0.05, soc_max=0.15, leakage_beta=1.0)
    quotes = (
        PriceQuote(utility=0.05, ev=0.06, trade=0.045, buyback=0.04),
        PriceQuote(utility=0.50, ev=0.60, trade=0.45, buyback=0.40),
    )
    episode = Episode(
        quotes=quotes,
        renewables=((0.0,), (0.0,)),
        arrivals=(((0.0, 0.0),), ((0.0, 0.0),)),
        initial_states=(StationState(5.0, 0.0, 0.0),),
    )
    grid = ActionGrid(ev_fractions=(0.0,), cs_levels=3)
    return TinyInstance(episode=episode, params=params, grid=grid)


def test_brute_force_finds_arbitrage_optimum():
    inst = _arbitrage_instance()
    result = brute_force(inst)
    assert result.profit == pytest.approx(10 * 0.40 - 10 * 0.05, abs=1e-12)
    # Buy to the ceiling, then dump everything.
    total, split = replay_sequence(inst, result.actions)
    assert total == pytest.approx(result.profit, abs=1e-12)
    assert split[0] == pytest.approx(result.profit, abs=1e-12)
    assert result.nodes > 0


def test_full_lookahead_greedy_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(5):
        inst = random_tiny_instance(rng)
        exact = brute_force(inst)
        greedy_total, greedy_actions = rolling_greedy(inst, inst.episode.length)
        scale = max(1.0, abs(exact.profit))
        assert abs(greedy_total - exact.profit) <= 1e-9 * scale
        replayed, _ = replay_sequence(inst, greedy_actions)
        assert replayed == pytest.approx(greedy_total, abs=1e-9)


def test_myopic_greedy_never_beats_optimum():
    rng = np.random.default_rng(1)
    for _ in range(5):
        inst = random_tiny_instance(rng)
        exact = brute_force(inst)
        myopic_total, _ = rolling_greedy(inst, 1)
        assert myopic_total <= exact.profit + 1e-9 * max(1.0, abs(exact.profit))


def test_optimum_dominates_random_play():
    rng = np.random.default_rng(2)
    inst = random_tiny_instance(rng)
    exact = brute_force(inst)
    tol = 1e-9 * max(1.0, abs(exact.profit))
    # Random feasible rollouts: walk the grid picking any unmasked action.
    for _ in range(50):
        states = list(inst.episode.initial_states)
        total = 0.0
        actions = []
        for t in range(inst.episode.length):
            picks = []
            for i, st in enumerate(states):
                _, _, mask = inst.grid.decode_table(st, inst.episode.renewables[t][i], inst.params)
                picks.append(int(rng.choice(np.flatnonzero(mask))))
            actions.append(tuple(picks))
        total, _ = replay_sequence(inst, tuple(actions))
        assert total <= exact.profit + tol


def _full_searches(monkeypatch):
    """A list that gains one entry per ``_search`` call spanning the episode from slot 0."""
    calls = []
    real = oracle._search

    def counting(episode, params, grid, start, t_start, depth):
        if (t_start, depth) == (0, episode.length):
            calls.append(depth)
        return real(episode, params, grid, start, t_start, depth)

    monkeypatch.setattr(oracle, "_search", counting)
    return calls


def test_full_lookahead_greedy_reuses_the_optimum(monkeypatch):
    calls = _full_searches(monkeypatch)
    rng = np.random.default_rng(3)
    for _ in range(4):
        inst = random_tiny_instance(rng)
        exact = brute_force(inst)
        assert len(calls) == 1
        assert brute_force(inst) is exact
        _, actions = rolling_greedy(inst, inst.episode.length + 1)
        assert len(calls) == 1
        assert actions[0] == exact.actions[0]
        calls.clear()


def test_solved_instance_plans_like_an_unsolved_copy(monkeypatch):
    # A dataclasses.replace copy starts unsolved, so it runs its own search,
    # and the memo changes neither the greedy's total nor its sequence.
    calls = _full_searches(monkeypatch)
    rng = np.random.default_rng(4)
    for _ in range(4):
        inst = random_tiny_instance(rng)
        length = inst.episode.length
        brute_force(inst)
        solved = rolling_greedy(inst, length)
        calls.clear()
        copy = dataclasses.replace(inst)
        assert rolling_greedy(copy, length) == solved
        assert len(calls) == 1
        assert rolling_greedy(inst, 1) == rolling_greedy(copy, 1)


def test_infeasible_instance_raises_on_every_call():
    # Urgent demand above the import cap, from an empty battery with no
    # renewable: no supply fraction has a feasible control at slot 0.
    inst = _arbitrage_instance()
    ep = inst.episode
    inst = dataclasses.replace(
        inst, params=dataclasses.replace(inst.params, import_cap=1.0),
        episode=dataclasses.replace(ep, initial_states=(StationState(5.0, 10.0, 0.0),)))
    for _ in range(2):
        with pytest.raises(InfeasibleActionError):
            brute_force(inst)
        with pytest.raises(InfeasibleActionError):
            rolling_greedy(inst, ep.length)


def test_oracle_result_is_frozen():
    # brute_force hands every caller the same result object.
    result = brute_force(_arbitrage_instance())
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.profit = 0.0


def test_budget_guard_rejects_explosive_grids():
    rng = np.random.default_rng(0)
    inst = random_tiny_instance(rng)
    big = ActionGrid(ev_fractions=(0.0, 0.25, 0.5, 0.75, 1.0), cs_levels=9)
    with pytest.raises(BudgetExceededError):
        TinyInstance(episode=_wider(inst.episode, 18), params=inst.params, grid=big)


def _wider(episode: Episode, T: int) -> Episode:
    reps = (T + episode.length - 1) // episode.length
    quotes = (episode.quotes * reps)[:T]
    renewables = (episode.renewables * reps)[:T]
    arrivals = (episode.arrivals * reps)[:T]
    return Episode(quotes=quotes, renewables=renewables, arrivals=arrivals,
                   initial_states=episode.initial_states)
