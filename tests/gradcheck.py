"""Central-difference verification of tape gradients.

The checker re-evaluates a scalar loss closure with each parameter entry
nudged by ±h and compares the slope against the analytic gradient.  Loss
closures must rebuild their graph on every call (any plain function over
tape tensors does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from evcoop.nn import Tensor


@dataclass
class GradCheckReport:
    max_rel_error: float
    max_abs_error: float
    worst_param: str
    worst_index: int          # flat index of the worst entry in worst_param
    worst_analytic: float     # its analytic derivative
    worst_fd: float           # and its central difference
    n_checked: int

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_error <= tol


def check_gradients(loss_fn: Callable[[], Tensor],
                    params: dict[str, Tensor],
                    h: float = 1e-5,
                    rel_floor: float = 1e-6,
                    sample: int | None = None,
                    rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``sample`` caps the number of entries probed per parameter (all entries
    when None); keep loss magnitudes around O(1) so the difference quotient
    is not dominated by cancellation.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    if loss.data.size != 1:
        raise ValueError("loss_fn must return a scalar")
    loss.backward()
    analytic = {
        name: (np.zeros_like(p.data) if p.grad is None else np.array(p.grad, copy=True))
        for name, p in params.items()
    }

    max_rel = 0.0
    max_abs = 0.0
    worst = ("", -1, 0.0, 0.0)
    n_checked = 0
    for name, p in params.items():
        size = p.data.size
        idxs = np.arange(size)
        if sample is not None and size > sample:
            idxs = rng.choice(size, size=sample, replace=False)
        a_flat = analytic[name].reshape(-1)
        for i in idxs:
            # index the parameter array itself; a flattened view could be a copy
            multi = np.unravel_index(i, p.data.shape)
            orig = p.data[multi]
            p.data[multi] = orig + h
            f_plus = loss_fn().item()
            p.data[multi] = orig - h
            f_minus = loss_fn().item()
            p.data[multi] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            abs_err = abs(a_flat[i] - fd)
            rel_err = abs_err / max(abs(a_flat[i]), abs(fd), rel_floor)
            n_checked += 1
            if rel_err > max_rel:
                max_rel = rel_err
                worst = (name, int(i), float(a_flat[i]), fd)
            max_abs = max(max_abs, abs_err)
    return GradCheckReport(max_rel, max_abs, *worst, n_checked)
