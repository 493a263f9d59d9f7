"""The monotone mixer as first written, op by op on the tape: the reference for ``MonotonicMixer``.

``composite_mix`` is one mixer's forward before the mixer became one fused
tape node: each hypernetwork a chain of Dense layers, each layer a matmul,
a bias add and a relu on the tape (``tape_dense``, the reference for
``Dense.__call__``), then taped absolute values, products, sums and an elu.
The package's tape has no ``abs``, ``elu``, matmul, ``relu``, ``reshape``,
``sigmoid`` or ``tanh``, so they are taped here (for other tests too).
``slice_mixers`` turns a mixer bank into one such mixer per slice, and
``slice_grads`` stacks their gradients back into the bank's layout.
"""

import copy

import numpy as np

from evcoop.nn import Tensor, parameter
from evcoop.nn.autodiff import sigmoid


def tape_abs(a):
    def backward(g):
        a._accum(g * np.sign(a.data))

    return Tensor._result(np.abs(a.data), (a,), backward)


def tape_elu(a):
    pos = a.data > 0.0
    out = np.where(pos, a.data, np.expm1(np.where(pos, 0.0, a.data)))

    def backward(g):
        a._accum(g * np.where(pos, 1.0, out + 1.0))

    return Tensor._result(out, (a,), backward)


def tape_matmul(a, b):
    """``a @ b``, slice by slice over leading axes both operands share exactly."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul needs matrices with equal leading axes, got "
                         f"{a.shape} @ {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.data.mT)
        if b.requires_grad:
            b._accum(a.data.mT @ g)

    return Tensor._result(a.data @ b.data, (a, b), backward)


def tape_relu(a):
    def backward(g):
        a._accum(g * (a.data > 0.0))

    return Tensor._result(np.maximum(a.data, 0.0), (a,), backward)


def tape_sigmoid(a):
    out = sigmoid(a.data)

    def backward(g):
        a._accum(g * out * (1.0 - out))

    return Tensor._result(out, (a,), backward)


def tape_tanh(a):
    out = np.tanh(a.data)

    def backward(g):
        a._accum(g * (1.0 - out * out))

    return Tensor._result(out, (a,), backward)


def tape_reshape(a, *shape):
    def backward(g):
        a._accum(g.reshape(a.shape))

    return Tensor._result(a.data.reshape(*shape), (a,), backward)


def tape_dense(layer, x):
    """``layer(x)`` as first written, op by op: matmul, bias add and relu on the tape."""
    b = layer.b  # a bank's (n, out) bias applies to every row of its slice
    bias = b if b.data.ndim == 1 else tape_reshape(b, b.shape[0], 1, layer.out_dim)
    out = tape_matmul(x, layer.W) + bias
    return tape_relu(out) if layer.activation == "relu" else out


def slice_mixers(bank):
    """Mixer j of a bank as its own Dense layers, holding trainable copies of slice j."""
    mixers = []
    for j in range(bank.layers["hyper_b1"].W.shape[0]):
        layers = {}
        for name, layer in bank.layers.items():
            layers[name] = single = copy.copy(layer)
            single.W = parameter(layer.W.data[j].copy())
            single.b = parameter(layer.b.data[j].copy())
        mixers.append(layers)
    return mixers


def composite_mix(layers, state, qs):
    """One mixer's (R,) values under (R, state_dim) ``state`` for (R, n) ``qs``, both tensors."""
    w1_0, w1_1, b1, w2_0, w2_1, b2_0, b2_1 = layers.values()
    R, n = qs.shape
    w1 = tape_reshape(tape_abs(tape_dense(w1_1, tape_dense(w1_0, state))), R, n, b1.out_dim)
    hidden = tape_elu((tape_reshape(qs, R, n, 1) * w1).sum(axis=1) + tape_dense(b1, state))
    w2 = tape_abs(tape_dense(w2_1, tape_dense(w2_0, state)))
    return (hidden * w2).sum(axis=1) + tape_reshape(tape_dense(b2_1, tape_dense(b2_0, state)), R)


def slice_grads(mixers, prefix=""):
    """The per-slice mixers' gradients stacked into the bank's layout, under its parameter names."""
    per_slice = [{} for _ in mixers]
    for grads, layers in zip(per_slice, mixers):
        for name, layer in layers.items():
            grads.update({k: p.grad for k, p in layer.parameters(f"{prefix}{name}.").items()})
    return {k: np.stack([g[k] for g in per_slice]) for k in per_slice[0]}
