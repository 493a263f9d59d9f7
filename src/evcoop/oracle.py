"""Exhaustive ground truth for tiny horizons, plus a rolling lookahead baseline.

The oracle enumerates the same discrete action grid the agents use, so its
optimum is an exact upper bound on anything a policy over that grid can earn.
The search is breadth-first within a slot and, like the rollouts, decodes
and then settles on what it decoded.  A station's next state depends only on
its own action, so a slot keeps a table of each station's distinct states
and a frontier row is one entry of it per station: ``decode_batch`` decodes
every (entry, action) of the table with its internal flow, and
``core.advance_stations_batch`` turns them into next states, except at a
search's last slot, whose next states nothing reads.  The arrivals were
checked when the ``Episode`` was built.  An entry the mask rejects holds a
placeholder the search never picks.  A row's joint actions
are numbered in a fixed radix over the grid, station 0 the most significant
digit, and a block holds whole frontier rows with all their joint actions,
or, where one row has more joint actions than a block, one row and a slice
of them; a joint mask marks the feasible ones (children).  Only clearing and
pricing couple the stations, and they run once per (row, joint action)
pair: each pair's supplies and controls are gathered from the table into
station-major ``(n, pairs)`` arrays and priced in one call.  An interior
block compresses to its children in that order and has them priced;
children that share a station's parent entry and action share its next
state, so the next slot's table holds each such state once.  That table is
built from one block's children, never more than the block's pairs, so no
table outgrows its block.  Leaves, the children of a search's last slot,
need only their profit: a leaf block prices every pair, sets the pairs the
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
and ``replay_sequence`` are choosers over the rollouts' ``core.run_episode``;
the oracle imports nothing of the learner it grades.
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
    ActionGrid,
    EssParams,
    InfeasibleActionError,
    StationState,
    advance_stations_batch,
    clear_and_price_batch,
    run_episode,
)
from .data import Episode, as_tuples

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
        root = _slot(ep, self.params, self.grid, 0, _state_arrays(ep.initial_states),
                     ep.length == 1)
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
    """Slot ``t``'s table of each station's distinct states, with every action's outcome.

    ``state`` holds the table's (battery, urgent, regular), each ``(U, n)``:
    column ``i`` lists states of station ``i``, and a frontier row is one
    entry per station.  ``mask`` is the decoded grid's feasibility mask,
    ``(n, U, A)``.  ``table`` stacks ``(n, U, A)`` arrays: the decoded
    supply and control and, unless the slot is a search's last, each
    station's next battery, urgent and regular demand under that action.
    Entries the mask rejects, and a column's padding, are placeholders.
    Station-major, so each station's cells ``(i * U + entry) * A + action``
    form one run.
    """

    t: int
    state: tuple
    mask: np.ndarray
    table: np.ndarray


def _slot(episode: Episode, params: EssParams, grid: ActionGrid, t: int, state,
          last: bool) -> _Slot:
    """Decode the ``state`` table's actions at slot ``t``; unless ``last``, advance under each.

    The arrivals are the episode's, checked when it was built, so none is checked here."""
    supply, control, mask, flow = grid.decode_batch(*state, episode.renewables[t], params)
    outcomes = [supply.transpose(1, 0, 2), control.transpose(1, 0, 2)]
    if not last:  # nothing reads a last slot's next states
        # advance_stations_batch broadcasts the arrivals over a last, station axis.
        supply, control, flow = (a.transpose(0, 2, 1) for a in (supply, control, flow))
        next_state = advance_stations_batch(*(a[:, None, :] for a in state), supply, control,
                                            flow, episode.arrivals[t], params)
        outcomes += [a.transpose(2, 0, 1) for a in next_state]
    return _Slot(t, state, np.ascontiguousarray(mask.transpose(1, 0, 2)), np.stack(outcomes))


def _children(episode: Episode, slot: _Slot, cells: np.ndarray):
    """Slot profit of the N children at ``(n, N)`` table ``cells``, and their next table.

    A child's cell for station i is its parent's entry and its own action
    there; two children with the same cell reach the same next state.
    Returns the next slot's state table, one entry per distinct cell in
    ascending order, each column padded to the widest with its last state;
    the children's ``(n, N)`` entries in it; and their ``(N,)`` profit.
    """
    n, entries, actions = slot.mask.shape
    supply, control = slot.table[:2].reshape(2, -1).take(cells, axis=1)
    seen = np.zeros(slot.mask.size, dtype=bool)
    seen[cells] = True
    # Station 0's distinct cells, ascending, then station 1's, ...
    reached = np.flatnonzero(seen)
    start = np.searchsorted(reached, np.arange(n + 1) * (entries * actions))
    position = np.empty(len(seen), dtype=np.intp)
    position[reached] = np.arange(len(reached))
    rank = np.arange(np.diff(start).max())[:, None]     # (U', 1): the next table's entries
    origin = reached[np.minimum(start[:-1] + rank, start[1:] - 1)]
    state = tuple(slot.table[2:].reshape(3, -1).take(origin, axis=1))
    return (state, position[cells] - start[:-1, None],
            clear_and_price_batch(supply, control, episode.quotes[slot.t]))


def _leaves(episode: Episode, slot: _Slot, cells: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """``(R, J)`` slot profit of R frontier rows taking each of J joint actions.

    ``cells`` holds each pair's ``(n, R, J)`` cells in the slot's flattened
    table.  Every pair is priced, a masked one on its placeholder entries;
    pairs ``feasible`` rejects come back ``-inf``.
    """
    supply, control = slot.table[:2].reshape(2, -1).take(cells.reshape(len(cells), -1), axis=1)
    profit = clear_and_price_batch(supply, control,
                                   episode.quotes[slot.t]).reshape(feasible.shape)
    profit[~feasible] = -math.inf
    return profit


def _search(episode: Episode, params: EssParams, grid: ActionGrid,
            root: _Slot, depth: int) -> tuple[float, tuple, int]:
    """Best cumulative profit over ``depth`` slots from the one-row, expanded ``root``.

    Returns (profit, action index sequence, environment steps evaluated).
    Each frontier row is an ``(n,)`` column of entries into its slot's
    table of distinct station states.  Frontier rows go in row-aligned
    blocks of at most ``_BLOCK_ROWS`` (row, joint action) pairs.  An
    interior block expands its feasible children into one next table, so
    no table holds more entries than its parent block has pairs; a leaf
    block is priced whole by ``_leaves``, its masked pairs discarded as
    ``-inf`` and never counted in ``nodes``, and its first maximum is its
    best leaf.  A row keeps only a link to its parent row and joint action,
    and a leaf that beats the best follows the links back to build its
    sequence.  The module docstring gives the search order and the tie
    rule.  Infeasible branches (empty mask under tight caps) are pruned.
    """
    n, _, actions = root.mask.shape
    # Row j of ``joint`` is the joint action numbered j: the grid index of
    # each station, station 0 the most significant digit.
    joint = np.indices((actions,) * n).reshape(n, -1).T
    picks = joint.T
    stations = np.arange(n)[:, None]
    end = root.t + depth
    best_profit = -math.inf
    best_seq: tuple = ()
    nodes = 0

    def expand(slot, index, acc, path):
        # index: (n, rows) table entries of the frontier rows; acc: (rows,)
        # profit so far; path: None at the root, else (parents, joints, path)
        # of the slot before: row r came from its row parents[r] by the joint
        # action numbered joints[r].
        nonlocal best_profit, best_seq, nodes
        frontier = stations * slot.mask.shape[1] + index  # (n, rows): the table's rows
        masks = slot.mask.reshape(-1, actions).take(frontier, axis=0)
        cell = frontier * actions                         # the cells of action 0
        # A block is ``step`` whole rows, or one row and ``width`` of its
        # joint actions where a row has more than a block holds.
        step, width = max(1, _BLOCK_ROWS // len(joint)), min(len(joint), _BLOCK_ROWS)
        for top, left in itertools.product(range(0, len(acc), step), range(0, len(joint), width)):
            rows, cols = slice(top, top + step), slice(left, left + width)
            feasible = masks[0, rows]
            for i in range(1, n):
                feasible = (feasible[:, :, None] & masks[i, rows, None, :]).reshape(
                    len(feasible), -1)
            feasible = feasible[:, cols]
            count = int(np.count_nonzero(feasible))
            if not count:
                continue
            nodes += count
            if slot.t + 1 < end:
                # Compress to the feasible children, in lexicographic order.
                row, col = np.nonzero(feasible)
                parents, col = rows.start + row, cols.start + col
                state, entries, profit = _children(episode, slot,
                                                   cell[:, parents] + picks[:, col])
                expand(_slot(episode, params, grid, slot.t + 1, state, slot.t + 2 == end),
                       entries, acc[parents] + profit, (parents, col, path))
                continue
            # Leaves: the first maximum of the row-major block is its
            # lexicographically first best leaf.
            total = acc[rows, None] + _leaves(
                episode, slot, cell[:, rows, None] + picks[:, None, cols], feasible)
            row, col = np.unravel_index(np.argmax(total), total.shape)
            if total[row, col] > best_profit:
                best_profit = total[row, col]
                taken, r, before = [cols.start + col], rows.start + row, path
                while before is not None:
                    parents, joints, before = before
                    taken.append(joints[r])
                    r = parents[r]
                best_seq = tuple(tuple(joint[j].tolist()) for j in reversed(taken))

    expand(root, np.zeros((n, 1), dtype=np.intp), np.zeros(1), None)
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
        root = _slot(ep, params, grid, t, _state_arrays(states), depth == 1)
        return _search(ep, params, grid, root, depth)[1][0]

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
