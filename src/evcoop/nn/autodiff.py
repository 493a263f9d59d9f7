"""A small reverse-mode tape over float64 numpy arrays.

Covers exactly the operations the fixed architectures in this package need
(affine layers, gated recurrence, the monotone mixer and squared-error
losses): 2-D matmul, broadcasting arithmetic, a handful of elementwise
nonlinearities, reductions, reshape, gather and stack.  No GPU, no general
broadcasting promises beyond what these ops use.

Gradients accumulate into ``Tensor.grad`` on ``backward()`` from a scalar.
Inside ``no_grad()`` no graph is recorded, which doubles as the fast path
for target-network evaluation and greedy rollouts.
"""

from __future__ import annotations

import numpy as np

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` along broadcast axes."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A float64 array plus the closure that routes gradients to its parents."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def detach(self) -> "Tensor":
        """A constant view of this value; gradients stop here."""
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate d(self)/d(param) into every reachable ``grad``; self must be scalar."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward_fn) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward_fn
        return out

    def _accum(self, g: np.ndarray) -> None:
        # Accumulation is always by reassignment, so aliasing g is safe.
        self.grad = g if self.grad is None else self.grad + g

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=np.float64))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.shape))

        return self._result(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g, b.shape))

        return self._result(a.data - b.data, (a, b), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g):
            a._accum(-g)

        return self._result(-a.data, (a,), backward)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.shape))

        return self._result(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError(f"matmul supports 2-D only, got {a.shape} @ {b.shape}")

        def backward(g):
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)

        return self._result(a.data @ b.data, (a, b), backward)

    # -- nonlinearities ----------------------------------------------------

    def relu(self) -> "Tensor":
        a = self
        out_data = np.maximum(a.data, 0.0)

        def backward(g):
            a._accum(g * (a.data > 0.0))

        return self._result(out_data, (a,), backward)

    def elu(self) -> "Tensor":
        a = self
        out_data = np.where(a.data > 0.0, a.data, np.expm1(a.data))

        def backward(g):
            a._accum(g * np.where(a.data > 0.0, 1.0, out_data + 1.0))

        return self._result(out_data, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        x = a.data
        out_data = np.empty_like(x)
        pos = x >= 0.0
        out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out_data[~pos] = ex / (1.0 + ex)

        def backward(g):
            a._accum(g * out_data * (1.0 - out_data))

        return self._result(out_data, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)

        def backward(g):
            a._accum(g * (1.0 - out_data * out_data))

        return self._result(out_data, (a,), backward)

    def abs(self) -> "Tensor":
        a = self

        def backward(g):
            a._accum(g * np.sign(a.data))

        return self._result(np.abs(a.data), (a,), backward)

    # -- shape and reduction -----------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        a = self

        def backward(g):
            a._accum(g.reshape(a.shape))

        return self._result(a.data.reshape(*shape), (a,), backward)

    def sum(self, axis: int | None = None) -> "Tensor":
        a = self

        def backward(g):
            if axis is None:
                a._accum(np.broadcast_to(g, a.shape).copy())
            else:
                a._accum(np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

        return self._result(a.data.sum(axis=axis), (a,), backward)

    def gather(self, indices: np.ndarray) -> "Tensor":
        """Select one column per row: ``out[b] = self[b, indices[b]]``."""
        a = self
        idx = np.asarray(indices, dtype=np.intp)
        rows = np.arange(a.data.shape[0])

        def backward(g):
            scatter = np.zeros_like(a.data)
            np.add.at(scatter, (rows, idx), g)
            a._accum(scatter)

        return self._result(a.data[rows, idx], (a,), backward)


def stack_cols(tensors: list[Tensor]) -> Tensor:
    """Stack 1-D tensors of length B into a (B, len) matrix."""
    data = np.stack([t.data for t in tensors], axis=1)
    parents = tuple(tensors)

    def backward(g):
        for j, t in enumerate(tensors):
            if t.requires_grad:
                t._accum(g[:, j])

    return Tensor._result(data, parents, backward)


def parameter(data, rng: np.random.Generator | None = None, scale: float | None = None) -> Tensor:
    """A trainable tensor; with ``rng`` given, ``data`` is a shape and values are uniform."""
    if rng is not None:
        shape = tuple(data)
        bound = scale if scale is not None else 1.0 / np.sqrt(max(1, shape[0]))
        data = rng.uniform(-bound, bound, size=shape)
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
