"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the moments' decay rates and the denominator's floor


class DivergenceError(RuntimeError):
    """Raised when a parameter or gradient stops being finite."""


class Adam:
    """Standard Adam with bias correction.

    ``params`` is a flat name -> Tensor dict; first and second moments are
    kept per name.  They start as ``np.zeros``, which leaves large fresh
    allocations unwritten (``np.zeros_like`` writes every page), so a learner
    that never steps, as in ``evaluate``, pages in no optimizer memory.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(p.data.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.data.shape) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """Apply one update from the accumulated gradients.

        Parameters with no gradient this round are left untouched (their
        moment buffers also stay put, so a frozen branch costs nothing).
        """
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient in {name}")
            m = self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            v = self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * g * g
            p.data = p.data - self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)
            if not np.all(np.isfinite(p.data)):
                raise DivergenceError(f"non-finite parameter {name} after update")
