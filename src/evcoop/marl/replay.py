"""Episodic replay: whole episodes stored so recurrent state can be re-unrolled."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass
class EpisodeRecord:
    """One rolled-out episode, array-packed for training.

    obs (T, I, 6); actions (T, I) int; masks (T, I, A) bool;
    rewards (T,) scaled; total_profits and station_profits in unscaled dollars.
    """

    obs: np.ndarray
    actions: np.ndarray
    masks: np.ndarray
    rewards: np.ndarray
    total_profits: np.ndarray
    station_profits: np.ndarray

    def __post_init__(self):
        t, n_agents, _ = self.obs.shape
        if self.actions.shape != (t, n_agents):
            raise ValueError(f"actions shape {self.actions.shape} misaligned")
        if self.masks.shape[:2] != (t, n_agents):
            raise ValueError(f"masks shape {self.masks.shape} misaligned")
        if self.rewards.shape != (t,) or self.total_profits.shape != (t,):
            raise ValueError("rewards/profits misaligned with episode length")
        if self.station_profits.shape != (t, n_agents):
            raise ValueError(f"station_profits shape {self.station_profits.shape} misaligned")
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("non-finite reward in episode record")

    @property
    def length(self) -> int:
        return self.obs.shape[0]


class ReplayBuffer:
    """Uniform-sampling ring of episode records."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._episodes: deque[EpisodeRecord] = deque(maxlen=capacity)
        self._rng = rng

    def add(self, record: EpisodeRecord) -> None:
        self._episodes.append(record)

    def __len__(self) -> int:
        return len(self._episodes)

    def sample(self, batch: int) -> list[EpisodeRecord]:
        """Uniform over stored episodes, with replacement."""
        if not self._episodes:
            raise ValueError("cannot sample from an empty buffer")
        idx = self._rng.integers(0, len(self._episodes), size=batch)
        return [self._episodes[i] for i in idx]
