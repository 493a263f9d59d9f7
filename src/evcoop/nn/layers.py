"""Dense networks, a gated recurrent cell, and the monotone hypernetwork mixer.

All layers consume and produce batch-first ``(batch, features)`` tensors in
double precision.  Parameters are plain tape tensors; each container exposes
``parameters()`` as a flat ``name -> Tensor`` dict so optimizers and
checkpoints can treat every architecture uniformly.
"""

from __future__ import annotations

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
        out = x @ self.W + self.b
        return out.relu() if self.activation == "relu" else out

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
    """One GRU step from the input projection ``xw = x @ [W_z W_r W_n]`` (bias not added).

    Returns ``(zr, n, rh, h_new)``: the update and reset gates side by side,
    the candidate, the reset-scaled hidden state and the new hidden state.
    """
    H = h.shape[1]
    zr = sigmoid(xw[:, :2 * H] + h @ U_zr + b[:2 * H])
    rh = zr[:, H:] * h
    n = np.tanh(xw[:, 2 * H:] + rh @ U_n + b[2 * H:])
    z = zr[:, :H]
    return zr, n, rh, (1.0 - z) * n + z * h


def _gru_gates_backward(g: np.ndarray, h: np.ndarray, zr: np.ndarray, n: np.ndarray,
                        U_zr: np.ndarray, U_n: np.ndarray):
    """Reverse of ``_gru_gates`` for ``g = dL/dh_new``.

    Returns ``(da, dh)``: the gradient with respect to the (B, 3H) gate
    pre-activations (z, r, n side by side) and with respect to ``h``.
    """
    H = h.shape[1]
    z = zr[:, :H]
    da = np.empty((h.shape[0], 3 * H))
    da_n = g * (1.0 - z) * (1.0 - n * n)
    drh = da_n @ U_n.T
    da[:, :H] = g * (h - n)
    da[:, H:2 * H] = drh * h
    da[:, :2 * H] *= zr * (1.0 - zr)
    da[:, 2 * H:] = da_n
    return da, g * z + drh * zr[:, H:] + da[:, :2 * H] @ U_zr.T


class GRUCell:
    """Gated recurrent cell; hidden units stay in (-1, 1) by construction.

    Update gate z and reset gate r are sigmoids of affine maps of ``(x, h)``;
    the candidate uses the reset-scaled hidden state, and the new hidden is
    the gate-weighted blend ``(1 - z) * candidate + z * h``.

    ``step`` and ``sequence`` each record one tape node with a hand-written
    backward; both run the same numpy gate kernel.
    """

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        bound = 1.0 / np.sqrt(hidden_dim)

        def mat(rows, cols):
            return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)

        def vec(n):
            return Tensor(rng.uniform(-bound, bound, size=n), requires_grad=True)

        self.W_z, self.U_z, self.b_z = mat(in_dim, hidden_dim), mat(hidden_dim, hidden_dim), vec(hidden_dim)
        self.W_r, self.U_r, self.b_r = mat(in_dim, hidden_dim), mat(hidden_dim, hidden_dim), vec(hidden_dim)
        self.W_n, self.U_n, self.b_n = mat(in_dim, hidden_dim), mat(hidden_dim, hidden_dim), vec(hidden_dim)

    def init_hidden(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_dim)))

    def _weights(self):
        # Read on every call: optimizers reassign .data and gradient checks edit it in place.
        W = np.concatenate([self.W_z.data, self.W_r.data, self.W_n.data], axis=1)
        U_zr = np.concatenate([self.U_z.data, self.U_r.data], axis=1)
        b = np.concatenate([self.b_z.data, self.b_r.data, self.b_n.data])
        return W, U_zr, self.U_n.data, b

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim or h.shape[-1] != self.hidden_dim:
            raise ValueError(f"shape mismatch: x {x.shape}, h {h.shape}")
        W, U_zr, U_n, b = self._weights()
        h_data = h.data
        zr, n, rh, out = _gru_gates(x.data @ W, h_data, U_zr, U_n, b)

        def backward(g):
            da, dh = _gru_gates_backward(g, h_data, zr, n, U_zr, U_n)
            if h.requires_grad:
                h._accum(dh)
            self._accum_grads(x, W, h_data, rh, da)

        return Tensor._result(out, (x, h, *self._params()), backward)

    def sequence(self, x: Tensor, batch: int, steps: int) -> Tensor:
        """Unroll ``steps`` slots from a zero hidden state.

        Rows of ``x`` (batch * steps, in_dim) are batch-major, row ``b * steps + t``
        holding episode b at slot t; the result holds the hidden state after
        each slot in the same row order, (batch * steps, hidden_dim).
        """
        B, T, H = batch, steps, self.hidden_dim
        if x.shape != (B * T, self.in_dim):
            raise ValueError(f"expected x of shape {(B * T, self.in_dim)}, got {x.shape}")
        W, U_zr, U_n, b = self._weights()
        xw = (x.data @ W).reshape(B, T, 3 * H)
        hs = np.zeros((B, T + 1, H))  # hs[:, t] enters slot t
        zr = np.empty((B, T, 2 * H))
        n = np.empty((B, T, H))
        rh = np.empty((B, T, H))
        for t in range(T):
            zr[:, t], n[:, t], rh[:, t], hs[:, t + 1] = _gru_gates(xw[:, t], hs[:, t], U_zr, U_n, b)

        def backward(g):
            g = g.reshape(B, T, H)
            da = np.empty((B, T, 3 * H))
            dh = np.zeros((B, H))
            for t in reversed(range(T)):
                da[:, t], dh = _gru_gates_backward(g[:, t] + dh, hs[:, t], zr[:, t], n[:, t],
                                                   U_zr, U_n)
            self._accum_grads(x, W, hs[:, :T].reshape(B * T, H), rh.reshape(B * T, H),
                              da.reshape(B * T, 3 * H))

        return Tensor._result(hs[:, 1:].reshape(B * T, H), (x, *self._params()), backward)

    def _params(self) -> tuple[Tensor, ...]:
        return (self.W_z, self.W_r, self.W_n, self.U_z, self.U_r, self.U_n,
                self.b_z, self.b_r, self.b_n)

    def _accum_grads(self, x: Tensor, W: np.ndarray, h_prev: np.ndarray, rh: np.ndarray,
                     da: np.ndarray) -> None:
        """Route gate pre-activation gradients ``da`` (rows, 3H) to ``x`` and every parameter."""
        H = self.hidden_dim
        dW = x.data.T @ da
        dU_zr = h_prev.T @ da[:, :2 * H]
        grads = (dW[:, :H], dW[:, H:2 * H], dW[:, 2 * H:],
                 dU_zr[:, :H], dU_zr[:, H:], rh.T @ da[:, 2 * H:],
                 *np.split(da.sum(axis=0), 3))
        for p, grad in zip(self._params(), grads):
            if p.requires_grad:
                p._accum(grad)
        if x.requires_grad:
            x._accum(da @ W.T)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {
            f"{prefix}W_z": self.W_z, f"{prefix}U_z": self.U_z, f"{prefix}b_z": self.b_z,
            f"{prefix}W_r": self.W_r, f"{prefix}U_r": self.U_r, f"{prefix}b_r": self.b_r,
            f"{prefix}W_n": self.W_n, f"{prefix}U_n": self.U_n, f"{prefix}b_n": self.b_n,
        }


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
