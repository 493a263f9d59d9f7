"""Observation encoding: what each agent sees of the market.

Each agent sees a six-feature vector: fleet-wide demand, its own state of
charge, its urgent and regular demand, its renewable generation, and the
utility price, each divided by a fixed normalization scale.  The action
grid the agents choose from, ``core.ActionGrid``, lives in ``core`` with
the episode loop that decodes and settles it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ..core import EssParams, StationState, soc
from ..core import ActionGrid  # noqa: F401 - benchmark/ reads marl.encoding.ActionGrid

OBS_DIM = 6


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
            value = getattr(self, f.name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"scale {f.name} must be positive and finite, got {value}")
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
