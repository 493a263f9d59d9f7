"""Exhaustive ground truth for tiny horizons, plus a rolling lookahead baseline.

The oracle enumerates the same discrete action grid the agents use, so its
optimum is an exact upper bound on anything a policy over that grid can earn.
The search is breadth-first within a slot and works on the two halves of
``core.step_batch``.  A station's next state depends only on its own action,
so for a block of frontier rows the per-station half runs once on the
decoded ``(rows, A, n)`` action table, checking only the entries the
feasibility mask admits.  Only clearing and pricing couple the stations: for
each block of joint actions (children) the coupled half prices the gathered
supplies and controls, and the children's next states are gathered from the
table.  The children of a search's last slot are leaves, which need only
their profit: they gather supply and control alone, and the index
sequence is built only for the best leaf of each block.  Blocks are
expanded depth-first, so memory stays bounded and leaves arrive in
ascending lexicographic order of their index sequences; a leaf replaces
the best only on strict improvement, so ties keep the first sequence in
that order.

Each instance's full-horizon optimum is searched once and kept on the
instance: ``brute_force`` returns it, and a rolling greedy whose lookahead
spans the episode takes its slot-0 plan from it, since that plan is the
same search.  Later re-plans search from the realized state.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    EssParams,
    PriceQuote,
    StationState,
    advance_stations_batch,
    clear_and_price_batch,
    step as env_step,
)
from .data import Episode
from .marl.encoding import ActionGrid, InfeasibleActionError

ENUMERATION_BUDGET = 10_000_000


class BudgetExceededError(ValueError):
    """Raised when the joint action space is too large to enumerate."""


@dataclass(frozen=True)
class TinyInstance:
    """A small scenario plus the action grid to enumerate over."""

    episode: Episode
    params: EssParams
    grid: ActionGrid

    def __post_init__(self):
        k = self.grid.n_actions
        cells = self.episode.station_count * self.episode.length
        if cells * math.log(k) > math.log(ENUMERATION_BUDGET):
            raise BudgetExceededError(
                f"{k}^{cells} joint sequences exceed the {ENUMERATION_BUDGET:.0e} budget")

    @functools.cached_property
    def _optimum(self) -> OracleResult:
        # Kept in the instance's __dict__: dataclasses.replace copies start
        # unsolved, and an error is raised again on every call, not kept.
        t0 = time.perf_counter()
        ep = self.episode
        profit, seq, nodes = _search(ep, self.params, self.grid,
                                     _state_arrays(ep.initial_states), 0, ep.length)
        return OracleResult(profit=profit, actions=seq, nodes=nodes,
                            wall_time_s=time.perf_counter() - t0)


@dataclass(frozen=True)
class OracleResult:
    """Optimal profit with the sequence achieving it.

    Frozen: ``brute_force`` hands every caller of an instance the same one.
    """

    profit: float
    actions: tuple[tuple[int, ...], ...]  # [slot][station] flat grid indices
    nodes: int
    wall_time_s: float


# Child rows per block.  The search runs depth-first over blocks of this many
# rows, so memory stays bounded at any enumeration size (the sweep behind
# this value is in BENCH_oracle_factored.json).
_BLOCK_ROWS = 2048


def _state_arrays(states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-row (battery, urgent, regular) arrays of a station state list."""
    rows = np.array([[s.battery_kwh, s.urgent_demand, s.regular_demand] for s in states])
    return rows[None, :, 0], rows[None, :, 1], rows[None, :, 2]


class _Slot(NamedTuple):
    """A block of frontier rows at slot ``t`` with every (row, action, station) outcome.

    ``state`` holds the rows' (battery, urgent, regular), each ``(rows, n)``,
    and ``mask`` the decoded grid's feasibility mask, ``(rows, A, n)``.
    ``table`` stacks five ``(rows, A, n)`` arrays: the decoded supply and
    control, and each station's next battery, urgent and regular demand
    under that action.  Entries the mask rejects are placeholders.
    """

    t: int
    state: tuple
    mask: np.ndarray
    table: np.ndarray


def _slot(episode: Episode, params: EssParams, grid: ActionGrid, t: int, state) -> _Slot:
    """Decode the ``state`` rows' actions at slot ``t``; advance each station under each."""
    supply, control, mask = (a.transpose(0, 2, 1)
                             for a in grid.decode_batch(*state, episode.renewables[t], params))
    next_state = advance_stations_batch(*(a[:, None, :] for a in state), supply, control,
                                        episode.renewables[t], episode.arrivals[t], params,
                                        admitted=mask)
    return _Slot(t, state, mask, np.stack((supply, control, *next_state)))


def _children(episode: Episode, slot: _Slot, parents: np.ndarray, picks: np.ndarray,
              leaf: bool = False):
    """Next states and slot profit of rows ``parents`` taking their ``picks`` (N, n).

    A ``leaf`` child needs only its profit: its next states are not
    gathered, and the list of them comes back empty.
    """
    _, actions, n = slot.mask.shape
    cells = (parents[:, None] * actions + picks) * n + np.arange(n)
    columns = 2 if leaf else 5
    supply, control, *next_state = slot.table[:columns].reshape(columns, -1).take(cells, axis=1)
    return next_state, clear_and_price_batch(supply, control, episode.quotes[slot.t])


def _search(episode: Episode, params: EssParams, grid: ActionGrid,
            start, t_start: int, depth: int) -> tuple[float, tuple, int]:
    """Best cumulative profit over ``depth`` slots from the one-row ``start`` state.

    Returns (profit, action index sequence, environment steps evaluated).
    The module docstring gives the search order and the tie rule.
    Infeasible branches (empty mask under tight caps) are pruned.
    """
    n = episode.station_count
    end = t_start + depth
    best_profit = -math.inf
    best_seq: tuple = ()
    nodes = 0

    def expand(t, state, acc, prefix):
        # state: (battery, urgent, regular), each (rows, n); acc: (rows,);
        # prefix: (rows, t - t_start, n) grid indices taken so far.
        nonlocal best_profit, best_seq, nodes
        leaf = t + 1 == end
        slot = _slot(episode, params, grid, t, state)
        counts = slot.mask.sum(axis=1)                  # feasible actions per station
        feasible = np.argsort(~slot.mask, axis=1, kind="stable")  # their indices first, ascending
        offsets = np.concatenate(([0], np.cumsum(counts.prod(axis=1))))
        children = int(offsets[-1])
        for lo in range(0, children, _BLOCK_ROWS):
            # Children lo.. of the frontier, numbered row by row and within
            # a row as mixed-radix digits over the stations, station 0 first.
            child = np.arange(lo, min(lo + _BLOCK_ROWS, children))
            parents = np.searchsorted(offsets, child, side="right") - 1
            local = child - offsets[parents]
            digits = np.empty((child.size, n), dtype=np.intp)
            for i in reversed(range(n)):
                local, digits[:, i] = np.divmod(local, counts[parents, i])
            picks = feasible[parents[:, None], digits, np.arange(n)]
            nxt, profit = _children(episode, slot, parents, picks, leaf=leaf)
            nodes += child.size
            total = acc[parents] + profit
            if not leaf:
                expand(t + 1, nxt, total,
                       np.concatenate((prefix[parents], picks[:, None, :]), axis=1))
                continue
            i = int(np.argmax(total))
            if total[i] > best_profit:
                best_profit = total[i]
                best_seq = tuple(map(tuple, prefix[parents[i]].tolist() + [picks[i].tolist()]))

    expand(t_start, start, np.zeros(1), np.zeros((1, 0, n), dtype=np.intp))
    if not math.isfinite(best_profit):
        raise InfeasibleActionError("no feasible joint action sequence")
    return best_profit, best_seq, nodes


def brute_force(instance: TinyInstance) -> OracleResult:
    """Exact maximum profit over every feasible joint action sequence.

    The search runs on the first call for an instance; later calls return
    the same result, with the wall time of that first search.
    """
    return instance._optimum


def rolling_greedy(instance: TinyInstance, lookahead: int
                   ) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """Plan ``lookahead`` slots ahead, execute the first joint action, repeat."""
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    ep = instance.episode
    params, grid = instance.params, instance.grid
    state = _state_arrays(ep.initial_states)
    total = 0.0
    taken: list[tuple[int, ...]] = []
    for t in range(ep.length):
        depth = min(lookahead, ep.length - t)
        # Only slot 0 of a full lookahead plans the whole episode, from the
        # initial state: that is the instance's optimum, searched once.
        seq = (instance._optimum.actions if depth == ep.length
               else _search(ep, params, grid, state, t, depth)[1])
        combo = seq[0]
        state, profit = _children(ep, _slot(ep, params, grid, t, state),
                                  np.zeros(1, dtype=np.intp), np.array([combo]))
        total += profit[0]
        taken.append(combo)
    return total, tuple(taken)


def replay_sequence(instance: TinyInstance, actions: tuple[tuple[int, ...], ...]
                    ) -> tuple[float, tuple[float, ...]]:
    """Re-execute an index sequence; returns (total, per-station totals).

    Raises if any index is infeasible at its slot, so it doubles as a
    feasibility check on reported optimal sequences.
    """
    ep = instance.episode
    params, grid = instance.params, instance.grid
    if len(actions) != ep.length:
        raise ValueError(f"sequence has {len(actions)} slots, episode has {ep.length}")
    states = list(ep.initial_states)
    total = 0.0
    per_station = np.zeros(ep.station_count)
    for t, combo in enumerate(actions):
        decoded = [
            grid.decode(int(a), states[i], ep.renewables[t][i], params)
            for i, a in enumerate(combo)
        ]
        out = env_step(states, decoded, list(ep.renewables[t]), ep.quotes[t],
                       list(ep.arrivals[t]), params)
        total += out.profit.total_profit
        per_station += np.asarray(out.profit.station_profit)
        states = list(out.next_states)
    return total, tuple(float(v) for v in per_station)


def random_tiny_instance(rng: np.random.Generator,
                         station_count: int = 2, horizon: int = 3,
                         grid: ActionGrid | None = None) -> TinyInstance:
    """A randomized small scenario with valid price ordering and mixed dynamics."""
    if grid is None:
        choices = (
            ActionGrid(ev_fractions=(0.0, 1.0), cs_levels=3),
            ActionGrid(ev_fractions=(0.0, 1.0), cs_levels=2),
            ActionGrid(ev_fractions=(0.0, 0.5, 1.0), cs_levels=2),
            ActionGrid(ev_fractions=(1.0,), cs_levels=5),
        )
        grid = choices[rng.integers(len(choices))]
    params = EssParams(
        capacity_max=float(rng.uniform(30.0, 80.0)),
        leakage_beta=float(rng.choice([1.0, 0.99])),
    )
    quotes = []
    for _ in range(horizon):
        u = float(rng.uniform(0.05, 0.50))
        quotes.append(PriceQuote(utility=u, ev=1.2 * u, trade=0.9 * u, buyback=0.8 * u))
    renewables = tuple(
        tuple(float(rng.uniform(0.0, 20.0)) for _ in range(station_count))
        for _ in range(horizon)
    )
    arrivals = tuple(
        tuple((float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.0, 12.0)))
              for _ in range(station_count))
        for _ in range(horizon)
    )
    initial_states = tuple(
        StationState(
            battery_kwh=float(rng.uniform(params.capacity_min, params.usable_max)),
            urgent_demand=float(rng.uniform(0.0, 6.0)),
            regular_demand=float(rng.uniform(0.0, 12.0)),
        )
        for _ in range(station_count)
    )
    episode = Episode(quotes=tuple(quotes), renewables=renewables,
                      arrivals=arrivals, initial_states=initial_states)
    return TinyInstance(episode=episode, params=params, grid=grid)
