"""Dense networks, a gated recurrent cell, and the monotone hypernetwork mixer.

All layers consume and produce ``(..., rows, features)`` tensors in double
precision; ``stack_layers`` banks n equally shaped layers or mixers on a
leading axis, and the bank maps ``(n, rows, features)`` as the n layers map
their slices.  Parameters are plain tape tensors; each container exposes
``parameters()`` as a flat ``name -> Tensor`` dict so optimizers and
checkpoints can treat every architecture uniformly.  Each layer has one
numpy forward: ``Dense.apply``, the GRU's slot kernel ``_gru_slot`` and the
mixer's ``forward``.  A Dense call, a GRU unroll and a mixer forward each
wrap it in one tape node with a hand-written backward (``_dense_grads``
serves Dense and the mixer's hypernetworks alike), and record nothing when
no parameter or input requires a gradient, as for the target nets.  The
GRU's kernel works in place: an unroll allocates its slot-major buffers
once and each slot writes into them with ``out=``.  Acting calls
``Dense.apply`` and ``GRUCell.step``, the same kernel for one slot, on
plain arrays.
"""

from __future__ import annotations

import copy

import numpy as np

from .autodiff import Tensor, parameter, sigmoid


def _dense_grads(x: np.ndarray, out: np.ndarray | None, g: np.ndarray):
    """Reverse of a Dense layer on input ``x`` for ``g = dL/d(output)``, ``out`` its relu output.

    Returns the pre-activation gradient (masked by ``out > 0``, unless ``out``
    is None for a layer without relu), ``dW`` and ``db``.
    """
    if out is not None:
        g = g * (out > 0.0)
    return g, x.mT @ g, g.sum(axis=-2)


class Dense:
    """One affine layer with an optional relu."""

    def __init__(self, in_dim: int, out_dim: int, activation: str, rng: np.random.Generator):
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        bound = 1.0 / np.sqrt(in_dim)
        self.W = parameter(rng.uniform(-bound, bound, size=(in_dim, out_dim)))
        self.b = parameter(rng.uniform(-bound, bound, size=out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        """``apply`` on ``x`` (..., rows, in_dim) as one tape node; a bank's slice i reads slice i of ``x``."""
        if x.data.ndim < 2 or x.shape[:-2] + x.shape[-1:] != self.W.shape[:-1]:
            raise ValueError(f"expected input (..., rows, in_dim) for W {self.W.shape}, got {x.shape}")
        W = self.W.data  # read now: optimizers reassign .data
        out = self.apply(x.data)
        relu_out = out if self.activation == "relu" else None

        def backward(g):
            g, *grads = _dense_grads(x.data, relu_out, g)
            for p, grad in zip((self.W, self.b), grads):
                if p.requires_grad:
                    p._accum(grad)
            if x.requires_grad:
                x._accum(g @ W.mT)

        return Tensor._result(out, (x, self.W, self.b), backward)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The layer's one forward, on a plain array (a bank's bias applies to every row of its slice)."""
        out = x @ self.W.data
        out += self.b.data[..., None, :]  # in place: no temporaries for the allocator to churn
        return np.maximum(out, 0.0, out=out) if self.activation == "relu" else out

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {f"{prefix}W": self.W, f"{prefix}b": self.b}


def _gru_slot(xw_zr: np.ndarray, xw_n: np.ndarray, h: np.ndarray, zr: np.ndarray, n: np.ndarray,
              rh: np.ndarray, h_new: np.ndarray, U_zr: np.ndarray, U_n: np.ndarray,
              b_zr: np.ndarray, b_n: np.ndarray) -> None:
    """One GRU slot of (..., B, H) states, in place: the cell's one forward.

    ``xw_zr`` and ``xw_n`` are the gate blocks of ``x @ W`` (bias not added),
    ``b_zr`` and ``b_n`` those of the bias as (..., 1, ·) rows.  Writes the
    update and reset gates side by side into ``zr`` (..., B, 2H), the
    candidate into ``n``, the reset-scaled state into ``rh`` and the new state
    into ``h_new``.  Sums and products commute bit for bit, so
    ``h @ U_zr + xw_zr`` is ``xw_zr + h @ U_zr``.
    """
    H = h.shape[-1]
    np.matmul(h, U_zr, out=zr)
    zr += xw_zr
    zr += b_zr
    sigmoid(zr, out=zr)
    z, r = zr[..., :H], zr[..., H:]
    np.multiply(r, h, out=rh)
    np.matmul(rh, U_n, out=n)
    n += xw_n
    n += b_n
    np.tanh(n, out=n)
    blend = np.subtract(1.0, z)
    blend *= n
    np.multiply(z, h, out=h_new)
    h_new += blend  # (1 - z) * n + z * h


class GRUCell:
    """Gated recurrent cell; hidden units stay in (-1, 1) by construction.

    Update gate z and reset gate r are sigmoids of affine maps of ``(x, h)``;
    the candidate uses the reset-scaled hidden state, and the new hidden is
    the gate-weighted blend ``(1 - z) * candidate + z * h``.

    The gates are packed side by side in z, r, n order into four parameters:
    ``W`` (in_dim, 3H), ``U_zr`` (H, 2H), ``U_n`` (H, H) and ``b`` (3H,);
    ``gate_columns`` names each gate's block.

    ``sequence`` runs the slot kernel ``_gru_slot`` over slot-major buffers
    and records one tape node with a hand-written backward through time, or
    none when nothing it reads requires a gradient; ``step`` runs the same
    kernel for one slot on plain arrays.
    """

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator):
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

        Blocks are drawn at construction in this order.
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

        Runs the slot kernel ``sequence`` runs, so the new hidden state equals
        ``sequence(x, B, 1, h0=h)`` bit for bit.
        """
        xw = x @ self.W.data
        H = self.hidden_dim
        shape = (*xw.shape[:-1], H)
        if h is None:
            h = np.zeros(shape)
        elif h.shape != shape:
            raise ValueError(f"expected h {shape}, got {h.shape}")
        zr, n, rh, h_new = (np.empty((*shape[:-1], width)) for width in (2 * H, H, H, H))
        _gru_slot(xw[..., :2 * H], xw[..., 2 * H:], h, zr, n, rh, h_new, self.U_zr.data,
                  self.U_n.data, *self._bias_blocks())
        return h_new

    def sequence(self, x: Tensor, batch: int, steps: int, h0: Tensor | None = None) -> Tensor:
        """Unroll ``steps`` slots from ``h0`` (..., batch, H), a zero state when None.

        Rows of ``x`` (..., batch * steps, in_dim) are batch-major, row ``b * steps + t``
        holding episode b at slot t; the result holds the hidden state after
        each slot in the same row order, (..., batch * steps, hidden_dim).
        Leading axes are a stack's: slice i runs on the i-th cell's weights.
        The slot kernel writes every slot's gates, candidate, reset-scaled
        state and new state into slot-major ``(steps, ..., batch, ·)``
        buffers, allocated once per call, taped or not; the backward reads
        them back slot by slot, last first.  The parameters' products read
        batch-major rows, so their sums over rows run in the row order above.
        """
        B, T, H = batch, steps, self.hidden_dim
        lead = self.W.shape[:-2]
        if x.shape != (*lead, B * T, self.in_dim) or h0 is not None and h0.shape != (*lead, B, H):
            raise ValueError(f"expected x {(*lead, B * T, self.in_dim)} and h0 {(*lead, B, H)}, "
                             f"got {x.shape} and {None if h0 is None else h0.shape}")
        parents = tuple(p for p in (x, h0, *self.parameters().values()) if p is not None)
        # Read on every call: optimizers reassign .data.
        W, U_zr, U_n = self.W.data, self.U_zr.data, self.U_n.data
        xw = np.moveaxis((x.data @ W).reshape(*lead, B, T, 3 * H), -2, 0)
        hs = np.zeros((T + 1, *lead, B, H))  # hs[t] enters slot t
        if h0 is not None:
            hs[0] = h0.data
        zr, n, rh = (np.empty((T, *lead, B, width)) for width in (2 * H, H, H))
        bias = self._bias_blocks()
        for slot in zip(xw[..., :2 * H], xw[..., 2 * H:], hs[:-1], zr, n, rh, hs[1:]):
            _gru_slot(*slot, U_zr, U_n, *bias)

        def backward(g):
            # Slots run last to first over slot-major views of the batch-major g
            # and da, on contiguous scratch reused slot after slot.  For the same
            # bits, each expression keeps its association order and U.mT stays a
            # view: a contiguous transposed copy changes the product's bits.
            g = np.moveaxis(g.reshape(*lead, B, T, H), -2, 0)
            da = np.empty((*lead, B, T, 3 * H))
            da_slots = np.moveaxis(da, -2, 0)
            dh = np.zeros((*lead, B, H))
            g_t, da_n, drh, s, s2 = (np.empty_like(dh) for _ in range(5))
            da_zr, d_sig = np.empty_like(zr[0]), np.empty_like(zr[0])
            da_z, da_r = da_zr[..., :H], da_zr[..., H:]
            U_zr_T, U_n_T = U_zr.mT, U_n.mT
            for g_in, h, zr_t, z, r, n_t, da_zr_t, da_n_t in zip(
                    g[::-1], hs[-2::-1], zr[::-1], zr[::-1, ..., :H], zr[::-1, ..., H:], n[::-1],
                    da_slots[::-1, ..., :2 * H], da_slots[::-1, ..., 2 * H:]):
                np.add(g_in, dh, out=g_t)
                # da_n = g * (1 - z) * (1 - n * n); a product or sum commutes bit for bit
                np.subtract(1.0, z, out=da_n)
                da_n *= g_t
                np.multiply(n_t, n_t, out=s)
                np.subtract(1.0, s, out=s)
                da_n *= s
                np.matmul(da_n, U_n_T, out=drh)
                # da_zr = [g * (h - n), drh * h] * (zr * (1 - zr))
                np.subtract(h, n_t, out=da_z)
                da_z *= g_t
                np.multiply(drh, h, out=da_r)
                np.subtract(1.0, zr_t, out=d_sig)
                d_sig *= zr_t
                da_zr *= d_sig
                # dh = (g * z + drh * r) + da_zr @ U_zr.mT
                np.multiply(g_t, z, out=dh)
                np.multiply(drh, r, out=s)
                dh += s
                np.matmul(da_zr, U_zr_T, out=s2)
                dh += s2
                np.copyto(da_zr_t, da_zr)
                np.copyto(da_n_t, da_n)
            if h0 is not None and h0.requires_grad:
                h0._accum(dh)
            self._accum_grads(x, W, np.moveaxis(hs[:-1], 0, -2).reshape(*lead, B * T, H),
                              np.moveaxis(rh, 0, -2).reshape(*lead, B * T, H),
                              da.reshape(*lead, B * T, 3 * H))

        return Tensor._result(np.moveaxis(hs[1:], 0, -2).reshape(*lead, B * T, H), parents, backward)

    def _bias_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The bias's gate blocks as (..., 1, 2H) and (..., 1, H) rows: the z and r gates', the candidate's."""
        b, H = self.b.data, self.hidden_dim
        return b[..., None, :2 * H], b[..., None, 2 * H:]

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
    """A bank of equally shaped Dense layers, GRU cells or mixers; parameter slice i is layer i's.

    A GRU bank holds the packed gates on the agent axis, e.g. ``W`` (n, in_dim, 3H);
    a mixer bank holds each hypernetwork layer as a Dense bank.
    """
    bank = copy.copy(layers[0])
    if isinstance(bank, MonotonicMixer):
        bank.layers = {name: stack_layers([m.layers[name] for m in layers]) for name in bank.layers}
        return bank
    # parameters() keys without a prefix are the attribute names
    for name in layers[0].parameters():
        setattr(bank, name, parameter(np.stack([getattr(layer, name).data for layer in layers])))
    return bank


class MonotonicMixer:
    """Combines per-agent Q-values into a scalar, monotone in every input.

    Four hypernetworks map the global state to the mixing parameters: the
    first-layer weights and bias and the second-layer weights and bias (all
    but the first-layer bias through a relu hidden layer).  The agent
    Q-values are mixed into an elu hidden layer, which is mixed into the
    scalar.  Both mixing weights pass through an elementwise absolute value,
    which makes the result nondecreasing in each agent Q regardless of state.

    ``stack_layers`` banks k mixers on a leading axis, as it banks the agents:
    the bank mixes the same rows k times, row j of its (k, R) result under
    mixer j.  ``forward`` records one tape node with a hand-written backward
    through the hypernetworks, the absolute values and the elu.
    """

    def __init__(self, state_dim: int, n_agents: int, embed_dim: int, hyper_hidden: int,
                 rng: np.random.Generator):
        self.state_dim = state_dim
        self.n_agents = n_agents
        self.embed_dim = embed_dim
        S, E = state_dim, embed_dim
        # drawn in this order; parameters() and checkpoints name them so
        self.layers = {
            "hyper_w1.l0": Dense(S, hyper_hidden, "relu", rng),
            "hyper_w1.l1": Dense(hyper_hidden, n_agents * E, "none", rng),
            "hyper_b1": Dense(S, E, "none", rng),
            "hyper_w2.l0": Dense(S, hyper_hidden, "relu", rng),
            "hyper_w2.l1": Dense(hyper_hidden, E, "none", rng),
            "hyper_b2.l0": Dense(S, hyper_hidden, "relu", rng),
            "hyper_b2.l1": Dense(hyper_hidden, 1, "none", rng),
        }

    def forward(self, state: np.ndarray, agent_qs: Tensor) -> Tensor:
        """Mix ``agent_qs`` (R, n_agents) under ``state`` (R, state_dim) into (..., R) as one tape node.

        Nothing is taped unless ``agent_qs`` or a parameter requires a gradient.
        """
        qs = agent_qs.data
        if qs.shape[-1] != self.n_agents:
            raise ValueError(f"expected {self.n_agents} agent Q-values, got {qs.shape}")
        if state.shape[-1] != self.state_dim:
            raise ValueError(f"expected state dim {self.state_dim}, got {state.shape}")
        w1_0, w1_1, b1, w2_0, w2_1, b2_0, b2_1 = self.layers.values()
        h_w1, h_w2, h_b2 = w1_0.apply(state), w2_0.apply(state), b2_0.apply(state)
        a_w1 = w1_1.apply(h_w1)
        w1 = np.abs(a_w1).reshape(*a_w1.shape[:-1], self.n_agents, self.embed_dim)
        pre = (qs[..., None] * w1).sum(axis=-2)
        pre += b1.apply(state)
        pos = pre > 0.0
        # elu: expm1 sees only the entries it keeps, so a large positive one cannot
        # overflow it; unlike np.minimum(pre, 0.0), this keeps -0.0 as it is.
        hidden = np.expm1(np.where(pos, 0.0, pre))
        np.copyto(hidden, pre, where=pos)
        a_w2 = w2_1.apply(h_w2)
        w2 = np.abs(a_w2)
        out = (hidden * w2).sum(axis=-1)
        out += b2_1.apply(h_b2)[..., 0]
        params = self.parameters()
        # Read now: optimizers reassign .data.
        W = [layer.W.data for layer in self.layers.values()]

        def hyper(j: int, h: np.ndarray, g: np.ndarray):
            """(dW, db) of layers j and j+1 for a gradient ``g`` at the output of ``relu(state @ .) @ .``."""
            return (*_dense_grads(state, h, g @ W[j + 1].mT)[1:], *_dense_grads(h, None, g)[1:])

        def backward(g):
            # In-place products keep each product's operands, so the bits match the
            # composite's op-by-op gradients.
            g = g[..., None]
            d_pre = hidden + 1.0
            np.copyto(d_pre, 1.0, where=pos)  # the elu's slope
            d_pre *= g * w2
            d_w1 = (d_pre[..., None, :] * qs[..., None]).reshape(a_w1.shape)
            d_w1 *= np.sign(a_w1)
            d_w2 = g * hidden
            d_w2 *= np.sign(a_w2)
            grads = (*hyper(0, h_w1, d_w1), *_dense_grads(state, None, d_pre)[1:],
                     *hyper(3, h_w2, d_w2), *hyper(5, h_b2, g))
            for p, grad in zip(params.values(), grads):
                if p.requires_grad:
                    p._accum(grad)
            if agent_qs.requires_grad:
                dq = (d_pre[..., None, :] * w1).sum(axis=-1)
                # a bank's k mixers all read the same Q-values
                agent_qs._accum(sum(dq[1:], dq[0]) if dq.ndim > qs.ndim else dq)

        return Tensor._result(out, (agent_qs, *params.values()), backward)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, layer in self.layers.items():
            out.update(layer.parameters(f"{prefix}{name}."))
        return out
