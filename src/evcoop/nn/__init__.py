"""Minimal double-precision neural toolkit: tape autodiff, layers, Adam,
finite-difference gradient checking, and npz checkpoints."""

from .autodiff import Tensor, parameter
from .checkpoint import CheckpointError, save_checkpoint
from .gradcheck import GradCheckReport, check_gradients
from .layers import Dense, GRUCell, MonotonicMixer, stack_layers
from .optim import Adam, DivergenceError

__all__ = [
    "Adam", "CheckpointError", "Dense", "DivergenceError",
    "GRUCell", "GradCheckReport", "MonotonicMixer", "Tensor",
    "check_gradients", "parameter", "save_checkpoint", "stack_layers",
]
