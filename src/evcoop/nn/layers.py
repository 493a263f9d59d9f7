"""Dense networks, a gated recurrent cell, and the monotone hypernetwork mixer.

All layers consume and produce ``(..., rows, features)`` tensors in double
precision; ``stack_layers`` banks n equally shaped layers on a leading axis,
and the bank maps ``(n, rows, features)`` as the n layers map their slices.
Parameters are plain tape tensors; each container exposes
``parameters()`` as a flat ``name -> Tensor`` dict so optimizers and
checkpoints can treat every architecture uniformly.  ``Dense.apply`` and
``GRUCell.step`` compute the same values on plain arrays, recording nothing,
for acting.
"""

from __future__ import annotations

import copy

import numpy as np

from .autodiff import Tensor, parameter, sigmoid


class Dense:
    """One affine layer with an optional relu."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "none",
                 rng: np.random.Generator | None = None):
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        if rng is None:
            rng = np.random.default_rng(0)
        bound = 1.0 / np.sqrt(in_dim)
        self.W = parameter((in_dim, out_dim), rng, scale=bound)
        self.b = parameter((out_dim,), rng, scale=bound)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"expected {self.in_dim} input features, got {x.shape}")
        b = self.b  # a bank's (n, out) bias applies to every row of its slice
        out = x @ self.W + (b if b.data.ndim == 1 else b.reshape(b.shape[0], 1, self.out_dim))
        return out.relu() if self.activation == "relu" else out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The same map on a plain array, untaped."""
        out = x @ self.W.data + self.b.data[..., None, :]
        return np.maximum(out, 0.0) if self.activation == "relu" else out

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {f"{prefix}W": self.W, f"{prefix}b": self.b}


class DenseNet:
    """A chain of Dense layers."""

    def __init__(self, dims: list[int], activations: list[str],
                 rng: np.random.Generator | None = None):
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        rng = rng or np.random.default_rng(0)
        self.layers = [
            Dense(dims[i], dims[i + 1], activations[i], rng) for i in range(len(dims) - 1)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.parameters(f"{prefix}l{i}."))
        return out


def _gru_gates(xw: np.ndarray, h: np.ndarray, U_zr: np.ndarray, U_n: np.ndarray,
               b: np.ndarray):
    """One GRU step of (..., B, H) states from the packed ``xw = x @ W`` (bias not added).

    Returns ``(zr, n, rh, h_new)``: the update and reset gates side by side,
    the candidate, the reset-scaled hidden state and the new hidden state.
    """
    H = h.shape[-1]
    b = b[..., None, :]
    zr = sigmoid(xw[..., :2 * H] + h @ U_zr + b[..., :2 * H])
    rh = zr[..., H:] * h
    n = np.tanh(xw[..., 2 * H:] + rh @ U_n + b[..., 2 * H:])
    z = zr[..., :H]
    return zr, n, rh, (1.0 - z) * n + z * h


def _gru_gates_backward(g: np.ndarray, h: np.ndarray, zr: np.ndarray, n: np.ndarray,
                        U_zr: np.ndarray, U_n: np.ndarray):
    """Reverse of ``_gru_gates`` for ``g = dL/dh_new``.

    Returns ``(da, dh)``: the gradient with respect to the (..., B, 3H) gate
    pre-activations (z, r, n side by side) and with respect to ``h``.
    """
    H = h.shape[-1]
    z = zr[..., :H]
    da = np.empty((*h.shape[:-1], 3 * H))
    da_n = g * (1.0 - z) * (1.0 - n * n)
    drh = da_n @ U_n.mT
    da[..., :H] = g * (h - n)
    da[..., H:2 * H] = drh * h
    da[..., :2 * H] *= zr * (1.0 - zr)
    da[..., 2 * H:] = da_n
    return da, g * z + drh * zr[..., H:] + da[..., :2 * H] @ U_zr.mT


class GRUCell:
    """Gated recurrent cell; hidden units stay in (-1, 1) by construction.

    Update gate z and reset gate r are sigmoids of affine maps of ``(x, h)``;
    the candidate uses the reset-scaled hidden state, and the new hidden is
    the gate-weighted blend ``(1 - z) * candidate + z * h``.

    The gates are packed side by side in z, r, n order into four parameters:
    ``W`` (in_dim, 3H), ``U_zr`` (H, 2H), ``U_n`` (H, H) and ``b`` (3H,);
    ``gate_columns`` names each gate's block.

    ``sequence`` records one tape node with a hand-written backward through
    time; ``step`` computes one slot of it on plain arrays, untaped.
    """

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        self.hidden_dim = H = hidden_dim
        self.W = parameter(np.empty((in_dim, 3 * H)))
        self.U_zr = parameter(np.empty((H, 2 * H)))
        self.U_n = parameter(np.empty((H, H)))
        self.b = parameter(np.empty(3 * H))
        bound = 1.0 / np.sqrt(H)
        for p, cols in self.gate_columns().values():
            p.data[..., cols] = rng.uniform(-bound, bound, size=p.data[..., cols].shape)

    def gate_columns(self) -> dict[str, tuple[Tensor, slice]]:
        """Each gate's block: ``W_z, U_z, b_z, W_r, ..., b_n`` -> (packed parameter, its columns).

        Blocks are drawn at construction in this order, and checkpoints store
        them under these names.
        """
        H = self.hidden_dim
        out: dict[str, tuple[Tensor, slice]] = {}
        for j, gate in enumerate("zrn"):
            cols = slice(j * H, (j + 1) * H)
            out[f"W_{gate}"] = (self.W, cols)
            out[f"U_{gate}"] = (self.U_n, slice(None)) if gate == "n" else (self.U_zr, cols)
            out[f"b_{gate}"] = (self.b, cols)
        return out

    def step(self, x: np.ndarray, h: np.ndarray | None) -> np.ndarray:
        """One untaped slot: array ``x`` (..., B, in_dim) from hidden ``h`` (..., B, H), zero when None.

        The new hidden state equals ``sequence(x, B, 1, h0=h)`` bit for bit.
        """
        xw = x @ self.W.data
        shape = (*xw.shape[:-1], self.hidden_dim)
        if h is None:
            h = np.zeros(shape)
        elif h.shape != shape:
            raise ValueError(f"expected h {shape}, got {h.shape}")
        return _gru_gates(xw, h, self.U_zr.data, self.U_n.data, self.b.data)[-1]

    def sequence(self, x: Tensor, batch: int, steps: int, h0: Tensor | None = None) -> Tensor:
        """Unroll ``steps`` slots from ``h0`` (..., batch, H), a zero state when None.

        Rows of ``x`` (..., batch * steps, in_dim) are batch-major, row ``b * steps + t``
        holding episode b at slot t; the result holds the hidden state after
        each slot in the same row order, (..., batch * steps, hidden_dim).
        Leading axes are a stack's: slice i runs on the i-th cell's weights.
        """
        B, T, H = batch, steps, self.hidden_dim
        lead = self.W.shape[:-2]
        if x.shape != (*lead, B * T, self.in_dim) or h0 is not None and h0.shape != (*lead, B, H):
            raise ValueError(f"expected x {(*lead, B * T, self.in_dim)} and h0 {(*lead, B, H)}, "
                             f"got {x.shape} and {None if h0 is None else h0.shape}")
        # Read on every call: optimizers reassign .data.
        W, U_zr, U_n, b = self.W.data, self.U_zr.data, self.U_n.data, self.b.data
        xw = (x.data @ W).reshape(*lead, B, T, 3 * H)
        hs = np.zeros((*lead, B, T + 1, H))  # hs[..., t, :] enters slot t
        if h0 is not None:
            hs[..., 0, :] = h0.data
        zr = np.empty((*lead, B, T, 2 * H))
        n = np.empty((*lead, B, T, H))
        rh = np.empty((*lead, B, T, H))
        for t in range(T):
            zr[..., t, :], n[..., t, :], rh[..., t, :], hs[..., t + 1, :] = _gru_gates(
                xw[..., t, :], hs[..., t, :], U_zr, U_n, b)

        def backward(g):
            g = g.reshape(*lead, B, T, H)
            da = np.empty((*lead, B, T, 3 * H))
            dh = np.zeros((*lead, B, H))
            for t in reversed(range(T)):
                da[..., t, :], dh = _gru_gates_backward(
                    g[..., t, :] + dh, hs[..., t, :], zr[..., t, :], n[..., t, :], U_zr, U_n)
            if h0 is not None and h0.requires_grad:
                h0._accum(dh)
            self._accum_grads(x, W, hs[..., :T, :].reshape(*lead, B * T, H),
                              rh.reshape(*lead, B * T, H), da.reshape(*lead, B * T, 3 * H))

        parents = tuple(p for p in (x, h0, *self.parameters().values()) if p is not None)
        return Tensor._result(hs[..., 1:, :].reshape(*lead, B * T, H), parents, backward)

    def _accum_grads(self, x: Tensor, W: np.ndarray, h_prev: np.ndarray, rh: np.ndarray,
                     da: np.ndarray) -> None:
        """Route gate pre-activation gradients ``da`` (..., rows, 3H) to ``x`` and every parameter."""
        H = self.hidden_dim
        # W, U_zr, U_n, b: the order of parameters()
        grads = (x.data.mT @ da, h_prev.mT @ da[..., :2 * H], rh.mT @ da[..., 2 * H:],
                 da.sum(axis=-2))
        for p, grad in zip(self.parameters().values(), grads):
            if p.requires_grad:
                p._accum(grad)
        if x.requires_grad:
            x._accum(da @ W.mT)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {f"{prefix}W": self.W, f"{prefix}U_zr": self.U_zr, f"{prefix}U_n": self.U_n,
                f"{prefix}b": self.b}


def stack_layers(layers):
    """A bank of equally shaped Dense layers or GRU cells: slice i of each parameter is layer i's.

    A GRU bank holds the packed gates on the agent axis, e.g. ``W`` (n, in_dim, 3H).
    """
    bank = copy.copy(layers[0])
    # parameters() keys without a prefix are the attribute names
    for name in layers[0].parameters():
        setattr(bank, name, parameter(np.stack([getattr(layer, name).data for layer in layers])))
    return bank


class MonotonicMixer:
    """Combines per-agent Q-values into a scalar, monotone in every input.

    Four hypernetworks map the global state to the mixing parameters; the
    first-layer and second-layer mixing weights pass through an elementwise
    absolute value, which makes the combined value nondecreasing in each
    agent Q regardless of state.
    """

    def __init__(self, state_dim: int, n_agents: int, embed_dim: int = 32,
                 hyper_hidden: int = 64, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.state_dim = state_dim
        self.n_agents = n_agents
        self.embed_dim = embed_dim
        self.hyper_w1 = DenseNet([state_dim, hyper_hidden, n_agents * embed_dim], ["relu", "none"], rng)
        self.hyper_b1 = Dense(state_dim, embed_dim, "none", rng)
        self.hyper_w2 = DenseNet([state_dim, hyper_hidden, embed_dim], ["relu", "none"], rng)
        self.hyper_b2 = DenseNet([state_dim, hyper_hidden, 1], ["relu", "none"], rng)

    def forward(self, state: Tensor, agent_qs: Tensor) -> Tensor:
        """Mix ``agent_qs`` of shape (B, n_agents) under ``state`` (B, state_dim) into (B,)."""
        if agent_qs.shape[-1] != self.n_agents:
            raise ValueError(f"expected {self.n_agents} agent Q-values, got {agent_qs.shape}")
        if state.shape[-1] != self.state_dim:
            raise ValueError(f"expected state dim {self.state_dim}, got {state.shape}")
        batch = state.shape[0]
        w1 = self.hyper_w1(state).abs().reshape(batch, self.n_agents, self.embed_dim)
        b1 = self.hyper_b1(state)
        hidden = ((agent_qs.reshape(batch, self.n_agents, 1) * w1).sum(axis=1) + b1).elu()
        w2 = self.hyper_w2(state).abs()
        b2 = self.hyper_b2(state)
        return (hidden * w2).sum(axis=1) + b2.reshape(batch)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.hyper_w1.parameters(f"{prefix}hyper_w1."))
        out.update(self.hyper_b1.parameters(f"{prefix}hyper_b1."))
        out.update(self.hyper_w2.parameters(f"{prefix}hyper_w2."))
        out.update(self.hyper_b2.parameters(f"{prefix}hyper_b2."))
        return out
