"""Multi-agent learning engine: encoding, replay, and the mixer trainer."""

from .encoding import (
    OBS_DIM,
    ActionGrid,
    InfeasibleActionError,
    ObsScales,
    encode_observation,
)
from .replay import EpisodeRecord, ReplayBuffer
from .trainer import (
    ALGORITHM_TRAITS,
    ALGORITHMS,
    DRQNAgent,
    EpisodeMetrics,
    LearnerState,
    SlotLog,
    Targets,
    TrainConfig,
    act_epsilon_greedy,
    build_learner,
    compute_targets,
    epsilon_at,
    load_learner,
    rollout_episode,
    run_episode,
    save_learner,
    sync_targets,
    train,
    train_step,
)

__all__ = [
    "ALGORITHM_TRAITS", "ALGORITHMS", "ActionGrid", "DRQNAgent", "EpisodeMetrics", "EpisodeRecord",
    "InfeasibleActionError", "LearnerState", "OBS_DIM", "ObsScales",
    "ReplayBuffer", "SlotLog", "Targets", "TrainConfig", "act_epsilon_greedy",
    "build_learner", "compute_targets", "encode_observation", "epsilon_at",
    "load_learner", "rollout_episode", "run_episode", "save_learner", "sync_targets",
    "train", "train_step",
]
