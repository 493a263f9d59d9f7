"""The GRU unroll as written before the in-place slot kernel: the reference for ``GRUCell``.

``reference_sequence`` is ``GRUCell.sequence`` with its backward and
``GRUCell.step`` as they were: a per-slot ``_gru_gates`` that allocates
every gate afresh and reads batch-major ``(..., B, T, ·)`` slices, its
reverse ``_gru_gates_backward``, and a logistic function that picks each
sign's branch with ``np.where``.  The package's cell must give the same
bits for the hidden states and for every gradient.
"""

import numpy as np


def where_sigmoid(v):
    """The logistic function with two ``np.where`` per call."""
    pos = v >= 0.0
    e = np.exp(np.where(pos, -v, v))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def _gru_gates(xw, h, U_zr, U_n, b):
    """One GRU step of (..., B, H) states from the packed ``xw = x @ W`` (bias not added).

    Returns ``(zr, n, rh, h_new)``: the update and reset gates side by side,
    the candidate, the reset-scaled hidden state and the new hidden state.
    """
    H = h.shape[-1]
    b = b[..., None, :]
    zr = where_sigmoid(xw[..., :2 * H] + h @ U_zr + b[..., :2 * H])
    rh = zr[..., H:] * h
    n = np.tanh(xw[..., 2 * H:] + rh @ U_n + b[..., 2 * H:])
    z = zr[..., :H]
    return zr, n, rh, (1.0 - z) * n + z * h


def _gru_gates_backward(g, h, zr, n, U_zr, U_n):
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


def reference_sequence(x, batch, steps, h0, W, U_zr, U_n, b, g=None):
    """Unroll as ``GRUCell.sequence`` did, on plain arrays.

    ``x`` (..., batch * steps, in_dim) is batch-major and ``h0`` (..., batch, H)
    or None.  Returns the hidden states (..., batch * steps, H) and, when
    ``g = dL/d(hidden states)`` is given, the gradients of ``x``, ``h0``,
    ``W``, ``U_zr``, ``U_n`` and ``b`` as a dict (``h0``'s None without ``h0``).
    """
    B, T, H = batch, steps, U_n.shape[-1]
    lead = W.shape[:-2]
    xw = (x @ W).reshape(*lead, B, T, 3 * H)
    hs = np.zeros((*lead, B, T + 1, H))
    if h0 is not None:
        hs[..., 0, :] = h0
    zr, n, rh = (np.empty((*lead, B, T, width)) for width in (2 * H, H, H))
    for t in range(T):
        zr[..., t, :], n[..., t, :], rh[..., t, :], hs[..., t + 1, :] = _gru_gates(
            xw[..., t, :], hs[..., t, :], U_zr, U_n, b)
    out = hs[..., 1:, :].reshape(*lead, B * T, H)
    if g is None:
        return out, None
    g = g.reshape(*lead, B, T, H)
    da = np.empty((*lead, B, T, 3 * H))
    dh = np.zeros((*lead, B, H))
    for t in reversed(range(T)):
        da[..., t, :], dh = _gru_gates_backward(
            g[..., t, :] + dh, hs[..., t, :], zr[..., t, :], n[..., t, :], U_zr, U_n)
    da = da.reshape(*lead, B * T, 3 * H)
    h_prev = hs[..., :T, :].reshape(*lead, B * T, H)
    grads = {"x": da @ W.mT, "h0": None if h0 is None else dh, "W": x.mT @ da,
             "U_zr": h_prev.mT @ da[..., :2 * H], "U_n": rh.reshape(*lead, B * T, H).mT @ da[..., 2 * H:],
             "b": da.sum(axis=-2)}
    return out, grads


def reference_step(x, h, W, U_zr, U_n, b):
    """``GRUCell.step`` as it was: one slot of ``_gru_gates`` from ``h``, zero when None."""
    xw = x @ W
    if h is None:
        h = np.zeros((*xw.shape[:-1], U_n.shape[-1]))
    return _gru_gates(xw, h, U_zr, U_n, b)[-1]
