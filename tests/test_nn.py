"""Autodiff, layers, optimizer, gradient checking, checkpoints."""

import numpy as np
import pytest

from evcoop.nn import (
    Adam,
    CheckpointError,
    DivergenceError,
    Dense,
    DenseNet,
    GRUCell,
    GradCheckReport,
    MonotonicMixer,
    Tensor,
    check_gradients,
    no_grad,
    parameter,
    save_checkpoint,
    stack_cols,
)
from evcoop.nn.checkpoint import read_checkpoint, restore_params


def test_tensor_forward_matches_numpy():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((4, 2)))
    out = (a @ b).relu().sum()
    expected = np.maximum(a.data @ b.data, 0.0).sum()
    assert out.item() == pytest.approx(expected, rel=1e-12)
    x = Tensor(np.array([-1.0, 0.5]))
    assert x.sigmoid().data == pytest.approx(1.0 / (1.0 + np.exp([1.0, -0.5])))
    assert x.tanh().data == pytest.approx(np.tanh(x.data))
    assert x.abs().data == pytest.approx([1.0, 0.5])


def test_matmul_backward_matches_analytic():
    rng = np.random.default_rng(1)
    a = parameter(rng.standard_normal((3, 4)))
    b = parameter(rng.standard_normal((4, 2)))
    loss = (a @ b).sum()
    loss.backward()
    # d/dA sum(AB) = 1 B^T, d/dB = A^T 1
    ones = np.ones((3, 2))
    assert a.grad == pytest.approx(ones @ b.data.T)
    assert b.grad == pytest.approx(a.data.T @ ones)


def test_gather_backward_scatter():
    q = parameter(np.arange(6.0).reshape(2, 3))
    idx = np.array([2, 0])
    out = q.gather(idx).sum()
    assert out.item() == pytest.approx(2.0 + 3.0)
    out.backward()
    expected = np.zeros((2, 3))
    expected[0, 2] = 1.0
    expected[1, 0] = 1.0
    assert q.grad == pytest.approx(expected)


def test_gru_step_hand_algebra():
    gru = GRUCell(1, 1, rng=np.random.default_rng(0))
    for t in (gru.W_z, gru.U_z, gru.b_z, gru.W_r, gru.U_r, gru.b_r, gru.b_n):
        t.data[...] = 0.0
    gru.W_n.data[...] = 1.0
    gru.U_n.data[...] = 1.0
    x = Tensor(np.array([[1.0]]))
    h = Tensor(np.array([[0.4]]))
    out = gru.step(x, h)
    # z = r = sigmoid(0) = 0.5, n = tanh(x + 0.5 h), out = 0.5 n + 0.5 h
    expected = 0.5 * np.tanh(1.0 + 0.5 * 0.4) + 0.5 * 0.4
    assert out.data[0, 0] == pytest.approx(expected, rel=1e-12)


def test_dense_initialization_spread():
    rng = np.random.default_rng(0)
    layer = Dense(100, 50, "relu", rng)
    bound = 1.0 / np.sqrt(100)
    assert np.abs(layer.W.data).max() <= bound
    assert layer.W.data.std() > 0.1 * bound


def _composite_loss():
    """A loss through every layer type; returns (loss_fn, params)."""
    rng = np.random.default_rng(42)
    enc = DenseNet([4, 8, 6], ["relu", "none"], rng)
    gru = GRUCell(6, 5, rng)
    head = Dense(5, 3, "none", rng)
    mixer = MonotonicMixer(state_dim=4, n_agents=3, embed_dim=4, hyper_hidden=8, rng=rng)
    x = Tensor(rng.standard_normal((2, 4)))
    target = np.array([0.3, -0.7])

    def loss_fn():
        h = gru.init_hidden(2)
        h = gru.step(enc(x), h)
        qs = head(h)
        tot = mixer.forward(x, qs)
        diff = tot - Tensor(target)
        return (diff * diff).sum()

    params = {}
    params.update(enc.parameters("enc."))
    params.update(gru.parameters("gru."))
    params.update(head.parameters("head."))
    params.update(mixer.parameters("mix."))
    return loss_fn, params


def test_gradcheck_composite_network():
    loss_fn, params = _composite_loss()
    report = check_gradients(loss_fn, params, sample=40, rng=np.random.default_rng(0))
    assert isinstance(report, GradCheckReport)
    assert report.ok(1e-4), f"max rel error {report.max_rel_error} at {report.worst_param}"


def test_gradcheck_detects_corrupted_gradient():
    loss_fn, params = _composite_loss()
    calls = {"n": 0}

    def inconsistent_loss():
        # The taped pass (first call) sees f; every finite-difference
        # evaluation afterwards sees 1.01 f, so analytic gradients are off
        # by one percent and the check must fail.
        calls["n"] += 1
        out = loss_fn()
        if calls["n"] > 1:
            out = out * Tensor(np.asarray(1.01))
        return out

    report = check_gradients(inconsistent_loss, params, sample=20,
                             rng=np.random.default_rng(2))
    assert not report.ok(1e-4)


def test_mixer_monotone_in_agent_values():
    rng = np.random.default_rng(3)
    mixer = MonotonicMixer(state_dim=6, n_agents=3, embed_dim=8, hyper_hidden=16, rng=rng)
    with no_grad():
        for _ in range(200):
            state = Tensor(rng.standard_normal((1, 6)))
            qs = rng.standard_normal((1, 3))
            base = mixer.forward(state, Tensor(qs)).data[0]
            for i in range(3):
                bumped = qs.copy()
                bumped[0, i] += 0.5
                up = mixer.forward(state, Tensor(bumped)).data[0]
                assert up >= base - 1e-9


def test_adam_converges_on_quadratic():
    w = parameter(np.array([5.0, -3.0]))
    opt = Adam({"w": w}, lr=0.1)
    for _ in range(400):
        opt.zero_grad()
        loss = (w * w).sum()
        loss.backward()
        opt.step()
    assert np.abs(w.data).max() < 1e-3


def test_adam_skips_untouched_params():
    w = parameter(np.array([1.0, 2.0]))
    idle = parameter(np.array([7.0]))
    opt = Adam({"w": w, "idle": idle}, lr=0.1)
    before = idle.data.copy()
    opt.zero_grad()
    (w * w).sum().backward()
    opt.step()
    assert np.array_equal(idle.data, before)
    # A zero gradient is still a gradient of zero only when backward touched
    # the tensor; untouched means grad is None and the step must be a no-op.
    assert idle.grad is None


def test_adam_raises_on_nonfinite():
    w = parameter(np.array([1.0]))
    opt = Adam({"w": w}, lr=0.1)
    opt.zero_grad()
    (w * w).sum().backward()
    w.grad[0] = np.nan
    with pytest.raises(DivergenceError):
        opt.step()


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    net = DenseNet([3, 4, 2], ["relu", "none"], rng)
    params = net.parameters("net.")
    snapshot = {k: v.data.copy() for k, v in params.items()}
    path = tmp_path / "ck.npz"
    save_checkpoint(path, params, meta={"algo": "x"})
    for v in params.values():
        v.data[...] = 0.0
    arrays, meta = read_checkpoint(path)
    restore_params(path, arrays, params)
    for k, v in params.items():
        assert np.array_equal(v.data, snapshot[k])
    assert meta["algo"] == "x"


def test_checkpoint_shape_and_name_mismatch(tmp_path):
    rng = np.random.default_rng(5)
    net = DenseNet([3, 4, 2], ["relu", "none"], rng)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, net.parameters("net."))
    arrays, _ = read_checkpoint(path)
    other = DenseNet([3, 5, 2], ["relu", "none"], rng)
    with pytest.raises(CheckpointError, match="shape"):
        restore_params(path, arrays, other.parameters("net."))
    renamed = DenseNet([3, 4, 2], ["relu", "none"], rng)
    with pytest.raises(CheckpointError, match="names do not match"):
        restore_params(path, arrays, renamed.parameters("other."))


def test_stack_cols_shapes_and_grad():
    a = parameter(np.array([1.0, 2.0]))
    b = parameter(np.array([3.0, 4.0]))
    out = stack_cols([a, b])
    assert out.shape == (2, 2)
    assert out.data == pytest.approx(np.array([[1.0, 3.0], [2.0, 4.0]]))
    (out * Tensor(np.array([[1.0, 10.0], [100.0, 1000.0]]))).sum().backward()
    assert a.grad == pytest.approx([1.0, 100.0])
    assert b.grad == pytest.approx([10.0, 1000.0])


def test_no_grad_blocks_taping():
    w = parameter(np.array([2.0]))
    with no_grad():
        out = (w * w).sum()
    assert not out.requires_grad
