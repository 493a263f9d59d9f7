"""Exhaustive planner: exact optimum, rolling greedy, instance hygiene."""

import numpy as np
import pytest

from evcoop.core import EssParams, PriceQuote, StationState
from evcoop.data import Episode
from evcoop.marl import ActionGrid
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
