"""Exhaustive planner: exact optimum, rolling greedy, instance hygiene."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evcoop import oracle
from evcoop.core import (
    ActionGrid,
    EssParams,
    InfeasibleActionError,
    PriceQuote,
    StationState,
    run_episode,
)
from evcoop.data import Episode
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


def test_oracle_and_fuzzers_load_no_learner_module():
    # The ground truth for any policy must not depend on the learner it grades.
    src = str(Path(oracle.__file__).resolve().parents[1])
    code = ("import sys; import evcoop.oracle, evcoop.fuzz; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'evcoop')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["evcoop", "evcoop.core", "evcoop.data", "evcoop.fuzz",
                                   "evcoop.oracle"]


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
    # Random feasible rollouts: each station picks any action its mask admits at that slot.
    def random_policy(t, states, masks):
        return [int(rng.choice(np.flatnonzero(row))) for row in masks]

    for _ in range(50):
        actions, _, totals, _, _ = run_episode(inst.episode, inst.params, inst.grid, random_policy)
        assert sum(totals) <= exact.profit + tol
        assert replay_sequence(inst, tuple(map(tuple, actions.tolist())))[0] == sum(totals)


@pytest.mark.parametrize("combo", [(0,), (0, 0, 0)])
def test_replay_rejects_a_combo_that_is_not_one_index_per_station(combo):
    # Two stations: a one-index combo must not be broadcast over both, and a
    # third index must not be dropped.
    inst = random_tiny_instance(np.random.default_rng(2))
    assert inst.episode.station_count == 2
    actions = ((0, 0),) * (inst.episode.length - 1) + (combo,)
    with pytest.raises(ValueError, match=f"slot {inst.episode.length - 1}: .* not 2 integer"):
        replay_sequence(inst, actions)


@pytest.mark.parametrize("picks", [0, (0.0, 0.0), np.array([[0, 0]]), [0, [0, 0]], (True, True)])
def test_run_episode_rejects_anything_but_integer_indices(picks):
    inst = random_tiny_instance(np.random.default_rng(2))
    with pytest.raises(ValueError, match="slot 0: the chooser returned"):
        run_episode(inst.episode, inst.params, inst.grid, lambda t, states, masks: picks)


def _full_searches(monkeypatch):
    """A list that gains one entry per ``_search`` call spanning the episode from slot 0."""
    calls = []
    real = oracle._search

    def counting(episode, params, grid, root, depth):
        if (root.t, depth) == (0, episode.length):
            calls.append(depth)
        return real(episode, params, grid, root, depth)

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


def test_oracle_profits_are_python_floats():
    # Annotated float, so a caller's repr or CSV reads a plain number.
    inst = random_tiny_instance(np.random.default_rng(3))
    assert type(brute_force(inst).profit) is float
    for lookahead in (1, inst.episode.length):
        assert type(rolling_greedy(inst, lookahead)[0]) is float
    assert type(replay_sequence(inst, brute_force(inst).actions)[0]) is float


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


def test_finer_grid_never_lowers_the_optimum():
    # Every action of the (0, 1) x 2-level grid is also one of the (0, 0.5, 1)
    # x 3-level grid's (levels span each interval inclusively), so on the same
    # draws the finer grid's optimum can only be higher.
    coarse, fine = ActionGrid((0.0, 1.0), 2), ActionGrid((0.0, 0.5, 1.0), 3)
    gains = 0
    for seed in range(16):
        low, high = (brute_force(random_tiny_instance(np.random.default_rng(seed), 2, 3, grid)).profit
                     for grid in (coarse, fine))
        assert high >= low - 1e-9 * abs(low), seed
        gains += high > low
    assert gains > 0  # the finer grid does find better plans
