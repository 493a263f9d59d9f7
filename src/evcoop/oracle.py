"""Exhaustive ground truth for tiny horizons, plus a rolling lookahead baseline.

The oracle enumerates the same discrete action grid the agents use, so its
optimum is an exact upper bound on anything a policy over that grid can earn.
The search is breadth-first within a slot and, like the rollouts, decodes
and then settles on what it decoded.  A station's next state depends only on
its own action, so for a block of frontier rows ``decode_batch`` decodes the
``(rows, A, n)`` action table with each entry's internal flow, and
``core.advance_stations_batch`` turns it into next states; an entry the mask
rejects holds a placeholder the search never picks.  A row's joint actions
are numbered in a fixed radix over the grid, station 0 the most significant
digit, and a block holds whole frontier rows with all their joint actions,
or, where one row has more joint actions than a block, one row and a slice
of them; a joint mask marks the feasible ones (children).  Only clearing and
pricing couple the stations: an interior block compresses to its children
in that order, and has their supplies and controls gathered and priced and
their next states gathered from the table.  Leaves, the children of a
search's last slot, need only their profit: a leaf block gathers every
(row, joint action) pair's supply and control through an offset table
built once per search, prices all of them in one call, sets the pairs the
mask rejects to ``-inf`` (they are priced on their placeholders, never win
and never count as nodes) and takes one ``argmax``, and only each block's
best leaf builds its index sequence.  Blocks are expanded depth-first, so
memory stays bounded and leaves arrive in lexicographic order of their
index sequences; a leaf replaces the best only on strict improvement, so
ties keep the first one.

Each instance's full-horizon optimum is searched once and kept on the
instance: ``brute_force`` returns it, and a rolling greedy whose lookahead
spans the episode takes its slot-0 plan from it, since that plan is the
same search.  Later re-plans search from the realized state.  The greedy
and ``replay_sequence`` are choosers over the rollouts' ``run_episode``.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_MULTIPLIERS,
    EssParams,
    StationState,
    advance_stations_batch,
    clear_and_price_batch,
)
from .data import Episode, as_tuples
from .marl.encoding import ActionGrid, InfeasibleActionError
from .marl.trainer import run_episode

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
        root = _slot(ep, self.params, self.grid, 0, _state_arrays(ep.initial_states))
        profit, seq, nodes = _search(ep, self.params, self.grid, root, ep.length)
        return OracleResult(profit=float(profit), actions=seq, nodes=nodes,
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


# (Row, joint action) pairs per block.  The search runs depth-first over blocks
# of at most this many pairs, so memory stays bounded at any enumeration size
# (the sweep behind this value is in BENCH_oracle_factored.json).
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
    supply, control, mask, flow = (a.transpose(0, 2, 1) for a in
                                   grid.decode_batch(*state, episode.renewables[t], params))
    next_state = advance_stations_batch(*(a[:, None, :] for a in state), supply, control, flow,
                                        episode.arrivals[t], params)
    return _Slot(t, state, mask, np.stack((supply, control, *next_state)))


def _children(episode: Episode, slot: _Slot, parents: np.ndarray, picks: np.ndarray):
    """Next states and slot profit of rows ``parents`` taking their ``picks`` (N, n)."""
    _, actions, n = slot.mask.shape
    cells = (parents[:, None] * actions + picks) * n + np.arange(n)
    supply, control, *next_state = slot.table.reshape(5, -1).take(cells, axis=1)
    return next_state, clear_and_price_batch(supply, control, episode.quotes[slot.t])


def _leaves(episode: Episode, slot: _Slot, rows: slice, cells: np.ndarray,
            feasible: np.ndarray) -> np.ndarray:
    """``(R, J)`` slot profit of frontier ``rows`` (R of them) taking each of J joint actions.

    ``cells`` holds each joint action's ``(J, n)`` offsets into a row's
    flattened ``(A, n)`` table.  Every pair is priced, a masked one on its
    placeholder entries; pairs ``feasible`` rejects come back ``-inf``.
    """
    supply, control = slot.table[:2, rows].reshape(2, len(feasible), -1).take(cells, axis=2)
    n = cells.shape[1]
    profit = clear_and_price_batch(supply.reshape(-1, n), control.reshape(-1, n),
                                   episode.quotes[slot.t]).reshape(feasible.shape)
    profit[~feasible] = -math.inf
    return profit


def _search(episode: Episode, params: EssParams, grid: ActionGrid,
            root: _Slot, depth: int) -> tuple[float, tuple, int]:
    """Best cumulative profit over ``depth`` slots from the one-row, expanded ``root``.

    Returns (profit, action index sequence, environment steps evaluated).
    Frontier rows go in row-aligned blocks of at most ``_BLOCK_ROWS``
    (row, joint action) pairs.  An interior block expands its feasible
    children; a leaf block is priced whole by ``_leaves`` through the offset
    table, its masked pairs discarded as ``-inf`` and never counted in
    ``nodes``, and its first maximum is its best leaf.  The module docstring
    gives the search order and the tie rule.  Infeasible branches (empty
    mask under tight caps) are pruned.
    """
    _, actions, n = root.mask.shape
    # Row j of ``joint`` is the joint action numbered j: the grid index of
    # each station, station 0 the most significant digit; row j of
    # ``offsets`` is where its entries sit in a row's flattened (A, n) table.
    joint = np.indices((actions,) * n).reshape(n, -1).T
    offsets = joint * n + np.arange(n)
    end = root.t + depth
    best_profit = -math.inf
    best_seq: tuple = ()
    nodes = 0

    def expand(slot, acc, prefix):
        # acc: (rows,) profit so far; prefix: (rows, slot.t - root.t, n) grid
        # indices taken so far.
        nonlocal best_profit, best_seq, nodes
        # A block is ``step`` whole rows, or one row and ``width`` of its
        # joint actions where a row has more than a block holds.
        step, width = max(1, _BLOCK_ROWS // len(joint)), min(len(joint), _BLOCK_ROWS)
        for top, left in itertools.product(range(0, len(acc), step), range(0, len(joint), width)):
            rows, cols = slice(top, top + step), slice(left, left + width)
            mask = slot.mask[rows]
            feasible = mask[:, :, 0]
            for i in range(1, n):
                feasible = (feasible[:, :, None] & mask[:, None, :, i]).reshape(len(mask), -1)
            feasible = feasible[:, cols]
            count = int(np.count_nonzero(feasible))
            if not count:
                continue
            nodes += count
            if slot.t + 1 < end:
                # Compress to the feasible children, in lexicographic order.
                row, col = np.nonzero(feasible)
                parents, picks = rows.start + row, joint[cols][col]
                nxt, profit = _children(episode, slot, parents, picks)
                expand(_slot(episode, params, grid, slot.t + 1, nxt), acc[parents] + profit,
                       np.concatenate((prefix[parents], picks[:, None, :]), axis=1))
                continue
            # Leaves: the first maximum of the row-major block is its
            # lexicographically first best leaf.
            total = acc[rows, None] + _leaves(episode, slot, rows, offsets[cols], feasible)
            row, col = np.unravel_index(np.argmax(total), total.shape)
            if total[row, col] > best_profit:
                best_profit = total[row, col]
                best_seq = tuple(map(tuple, prefix[rows.start + row].tolist()
                                     + [joint[cols][col].tolist()]))

    expand(root, np.zeros(1), np.zeros((1, 0, n), dtype=np.intp))
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

    def choose(t, states, masks):
        depth = min(lookahead, ep.length - t)
        # Only slot 0 of a full lookahead plans the whole episode, from the
        # initial state: that is the instance's optimum, searched once.
        if depth == ep.length:
            return instance._optimum.actions[0]
        return _search(ep, params, grid, _slot(ep, params, grid, t, _state_arrays(states)),
                       depth)[1][0]

    actions, _, totals, _, _ = run_episode(ep, params, grid, choose)
    return float(sum(totals)), tuple(map(tuple, actions.tolist()))


def replay_sequence(instance: TinyInstance, actions: tuple[tuple[int, ...], ...]
                    ) -> tuple[float, tuple[float, ...]]:
    """Re-execute an index sequence; returns (total, per-station totals).

    Raises if any index is infeasible at its slot, so it doubles as a
    feasibility check on reported optimal sequences.
    """
    ep = instance.episode
    if len(actions) != ep.length:
        raise ValueError(f"sequence has {len(actions)} slots, episode has {ep.length}")
    _, _, totals, station, _ = run_episode(ep, instance.params, instance.grid,
                                           lambda t, states, masks: actions[t])
    return float(sum(totals)), tuple(float(v) for v in sum(station))


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
    quotes = tuple(map(DEFAULT_MULTIPLIERS.quote, rng.uniform(0.05, 0.50, horizon).tolist()))
    renewables = as_tuples(rng.uniform(0.0, 20.0, (horizon, station_count)))
    # The last axis interleaves fields drawn in turn, as the stream order requires:
    # arrivals [t][station] -> (urgent, regular), states [station] -> (battery, urgent, regular).
    arrivals = as_tuples(rng.uniform((0.0, 0.0), (6.0, 12.0), (horizon, station_count, 2)))
    initial_states = tuple(itertools.starmap(StationState, rng.uniform(
        (params.capacity_min, 0.0, 0.0), (params.usable_max, 6.0, 12.0),
        (station_count, 3)).tolist()))
    episode = Episode(quotes=quotes, renewables=renewables,
                      arrivals=arrivals, initial_states=initial_states)
    return TinyInstance(episode=episode, params=params, grid=grid)
