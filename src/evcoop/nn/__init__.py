"""Minimal double-precision neural toolkit: tape autodiff, layers, Adam and
npz checkpoints."""

from .autodiff import Tensor, parameter
from .checkpoint import CheckpointError, save_checkpoint
from .layers import Dense, GRUCell, MonotonicMixer, stack_layers
from .optim import Adam, DivergenceError

__all__ = [
    "Adam", "CheckpointError", "Dense", "DivergenceError", "GRUCell",
    "MonotonicMixer", "Tensor", "parameter", "save_checkpoint", "stack_layers",
]
