"""Observation encoding and the discrete, feasibility-masked action grid.

Each agent sees a six-feature vector: fleet-wide demand, its own state of
charge, its urgent and regular demand, its renewable generation, and the
utility price, each divided by a fixed normalization scale.  Actions are a
``K_ev x K_cs`` grid: a supply fraction applied to regular demand crossed
with battery control levels spaced linearly over the feasible interval that
results from that supply choice, so every decodable action already respects
the demand and battery constraints.  Each slot of ``run_episode``, every
policy's episode loop, decodes each supply fraction's block once
(``ActionGrid.blocks``), then only the chosen action (``ActionGrid.action``),
and settles on the chosen blocks' control interval entries (``core.settle``).
``ActionGrid.decode_table`` is ``action`` tabulated over every index of one
station's blocks; no command calls it, and the tests pin the array decode
``ActionGrid.decode_batch`` to it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ..core import (
    EssParams,
    StationAction,
    StationState,
    check_batch,
    check_finite_station,
    control_bounds_batch,
    control_intervals,
    soc,
)

OBS_DIM = 6
Block = tuple[float, tuple[float, float, float, float]]  # supply, (flow, cut, lo, hi)


class InfeasibleActionError(ValueError):
    """Raised when decoding an action index the current mask forbids."""


@dataclass(frozen=True)
class ObsScales:
    """Per-feature divisors; defaults sized for tens-of-kWh stations."""

    demand_all: float = 100.0
    soc: float = 1.0
    urgent: float = 25.0
    regular: float = 50.0
    renewable: float = 50.0
    price: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f"scale {f.name} must be positive")
        # Built once, in field order: encode_observation divides by it every slot.
        divisors = np.array([getattr(self, f.name) for f in fields(self)])
        divisors.flags.writeable = False
        object.__setattr__(self, "_divisors", divisors)

    def as_array(self) -> np.ndarray:
        """The six scales in feature order, read-only."""
        return self._divisors


def encode_observation(states: Sequence[StationState], renewables: Sequence[float],
                       price_utility: float, params: EssParams, scales: ObsScales) -> np.ndarray:
    """Every station's row [D_all, SOC_i, D_urgent_i, D_regular_i, E_renewable_i, price], (n, 6)."""
    demand_all = sum(s.total_demand for s in states)
    raw = np.array([(demand_all, soc(s, params), s.urgent_demand, s.regular_demand, r, price_utility)
                    for s, r in zip(states, renewables, strict=True)])
    return raw / scales.as_array()


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
