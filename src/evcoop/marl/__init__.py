"""Multi-agent learning engine: observation encoding, replay, and the mixer trainer."""

from .encoding import OBS_DIM, ObsScales, encode_observation
from .replay import EpisodeRecord, ReplayBuffer
from .trainer import (
    ALGORITHM_TRAITS,
    ALGORITHMS,
    DRQNAgent,
    EpisodeMetrics,
    LearnerState,
    Targets,
    TrainConfig,
    act_epsilon_greedy,
    build_learner,
    compute_targets,
    epsilon_at,
    load_learner,
    rollout_episode,
    save_learner,
    sync_targets,
    train,
    train_step,
)

__all__ = [
    "ALGORITHM_TRAITS", "ALGORITHMS", "DRQNAgent", "EpisodeMetrics", "EpisodeRecord",
    "LearnerState", "OBS_DIM", "ObsScales", "ReplayBuffer", "Targets", "TrainConfig",
    "act_epsilon_greedy", "build_learner", "compute_targets", "encode_observation", "epsilon_at",
    "load_learner", "rollout_episode", "save_learner", "sync_targets", "train", "train_step",
]
