"""A small reverse-mode tape over float64 numpy arrays.

Each layer in this package (a Dense layer, a GRU unroll, a mixer forward)
records itself as a single node through ``Tensor._result``, with a
hand-written backward over the layer's one numpy forward.  The ops here
cover what the squared-error losses around them need: broadcasting
arithmetic, sums, transpose and gather.  No GPU, no general broadcasting
promises beyond what these ops use.

Gradients accumulate into ``Tensor.grad`` on ``backward()`` from a scalar.
A result is recorded on the tape if and only if one of its parents has
``requires_grad``; so constants, such as target-network parameters and
data, build no graph.
"""

from __future__ import annotations

import numpy as np


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function that cannot overflow: exp never sees a positive argument.

    Gives the same bits as ``1 / (1 + exp(-v))`` for ``v >= 0`` and
    ``exp(v) / (1 + exp(v))`` otherwise, NaN sign included, with no mask
    and no ``np.where``: ``e = exp(minimum(v, -v))`` and
    ``maximum(e, v >= 0) / (e + 1)``, whose numerator is 1 where ``v >= 0``
    (there ``e <= 1``) and ``e`` elsewhere.  ``out`` may be ``v`` itself.
    """
    e = np.negative(v)
    np.minimum(v, e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    out = np.maximum(e, v >= 0.0, out=out)
    out /= d
    return out


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
        if any(p.requires_grad for p in parents):
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

    # -- shape and reduction -----------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        a = self

        def backward(g):
            if axis is None:
                a._accum(np.broadcast_to(g, a.shape).copy())
            else:
                a._accum(np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

        return self._result(a.data.sum(axis=axis), (a,), backward)

    def transpose(self) -> "Tensor":
        """Swap the last two axes."""
        a = self

        def backward(g):
            a._accum(g.mT)

        return self._result(a.data.mT, (a,), backward)

    def gather(self, indices: np.ndarray) -> "Tensor":
        """One entry of the last axis per row: ``out[..., r] = self[..., r, indices[..., r]]``."""
        a = self
        idx = np.ascontiguousarray(indices, dtype=np.intp)  # the result takes its layout
        where = (*np.indices(idx.shape, sparse=True), idx)

        def backward(g):
            scatter = np.zeros_like(a.data)
            np.add.at(scatter, where, g)
            a._accum(scatter)

        return self._result(a.data[where], (a,), backward)


def parameter(data) -> Tensor:
    """A trainable float64 tensor over ``data``."""
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
