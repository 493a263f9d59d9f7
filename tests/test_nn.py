"""Autodiff, layers, optimizer, gradient checking, checkpoints."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evcoop.nn import (
    Adam,
    CheckpointError,
    DivergenceError,
    Dense,
    GRUCell,
    MonotonicMixer,
    Tensor,
    parameter,
    save_checkpoint,
    stack_layers,
)
from evcoop.nn.autodiff import sigmoid
from evcoop.nn.checkpoint import read_checkpoint, restore_params
from gradcheck import GradCheckReport, check_gradients
from gru_reference import reference_sequence, reference_step
from mixer_reference import (
    composite_mix,
    slice_grads,
    slice_mixers,
    tape_dense,
    tape_matmul,
    tape_reshape,
    tape_sigmoid,
    tape_tanh,
)


def test_tensor_forward_matches_numpy():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((4, 2)))
    out = tape_matmul(a, b).sum()
    expected = (a.data @ b.data).sum()
    assert out.item() == pytest.approx(expected, rel=1e-12)
    x = Tensor(np.array([-1.0, 0.5]))
    assert tape_tanh(x).data == pytest.approx(np.tanh(x.data))


def test_matmul_backward_matches_analytic():
    rng = np.random.default_rng(1)
    for lead in ((), (3,)):  # two matrices, then two stacks of three
        a = parameter(rng.standard_normal((*lead, 3, 4)))
        b = parameter(rng.standard_normal((*lead, 4, 2)))
        loss = tape_matmul(a, b).sum()
        loss.backward()
        # d/dA sum(AB) = 1 B^T, d/dB = A^T 1, slice by slice
        ones = np.ones((3, 2))
        for k in np.ndindex(lead):
            assert a.grad[k] == pytest.approx(ones @ b.data[k].T)
            assert b.grad[k] == pytest.approx(a.data[k].T @ ones)


@pytest.mark.parametrize("a_shape, b_shape", [((2, 3, 4), (1, 4, 2)), ((2, 3, 4), (4, 2)),
                                              ((3, 4), (2, 4, 2)), ((3, 4), (4,))])
def test_matmul_rejects_unequal_leading_axes(a_shape, b_shape):
    # numpy would broadcast these, and a size-1 or missing axis would then
    # receive a gradient of the broadcast shape
    with pytest.raises(ValueError, match="equal leading axes"):
        tape_matmul(parameter(np.ones(a_shape)), parameter(np.ones(b_shape)))


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
    gru.W.data[...] = [[0.0, 0.0, 1.0]]  # W_z, W_r, W_n
    gru.U_zr.data[...] = 0.0
    gru.U_n.data[...] = 1.0
    gru.b.data[...] = 0.0
    out = gru.step(np.array([[1.0]]), np.array([[0.4]]))
    # z = r = sigmoid(0) = 0.5, n = tanh(x + 0.5 h), out = 0.5 n + 0.5 h
    expected = 0.5 * np.tanh(1.0 + 0.5 * 0.4) + 0.5 * 0.4
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)


def _masked_sigmoid(x):
    """The logistic function as first written: a boolean-mask scatter per sign."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                 745.2, -745.2, 709.8, -709.8, 36.8, -36.8, 5e-324, -5e-324]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-800.0, 800.0) | st.sampled_from(SIGMOID_EDGES) | st.floats(),
                min_size=1, max_size=40))
def test_sigmoid_matches_masked_formula_bit_for_bit(values):
    v = np.array(values + SIGMOID_EDGES)
    got = sigmoid(v)
    assert np.array_equal(got.view(np.int64), _masked_sigmoid(v).view(np.int64))


def _gate(packed, j, H):
    """Gate j's H columns of a packed GRU parameter, picked on the tape by a 0/1 selector."""
    width = packed.shape[-1]
    rows = packed if packed.data.ndim == 2 else tape_reshape(packed, 1, width)
    return tape_matmul(rows, Tensor(np.eye(width)[:, j * H:(j + 1) * H]))


def _composite_step(cell, x, h):
    """GRUCell.step as first written: the gate algebra built from tape ops, one gate at a time."""
    H = cell.hidden_dim
    W_z, W_r, W_n = (_gate(cell.W, j, H) for j in range(3))
    U_z, U_r = (_gate(cell.U_zr, j, H) for j in range(2))
    b_z, b_r, b_n = (_gate(cell.b, j, H) for j in range(3))
    z = tape_sigmoid(tape_matmul(x, W_z) + tape_matmul(h, U_z) + b_z)
    r = tape_sigmoid(tape_matmul(x, W_r) + tape_matmul(h, U_r) + b_r)
    n = tape_tanh(tape_matmul(x, W_n) + tape_matmul(r * h, cell.U_n) + b_n)
    return (Tensor(1.0) - z) * n + z * h


def test_gru_packs_the_nine_per_gate_draws():
    in_dim, H = 4, 3
    drawn = np.random.default_rng(9)
    gru = GRUCell(in_dim, H, drawn)
    # the per-gate parameters as first drawn: (W, U, b) for each gate z, r, n in turn
    rng = np.random.default_rng(9)
    shapes = ((in_dim, H), (H, H), (H,))
    bound = 1.0 / np.sqrt(H)
    draws = [rng.uniform(-bound, bound, size=shape) for _ in "zrn" for shape in shapes]
    W_z, U_z, b_z, W_r, U_r, b_r, W_n, U_n, b_n = draws
    want = {"W": np.concatenate([W_z, W_r, W_n], axis=1),
            "U_zr": np.concatenate([U_z, U_r], axis=1),
            "U_n": U_n,
            "b": np.concatenate([b_z, b_r, b_n])}
    got = gru.parameters()
    assert list(got) == list(want)
    for name, p in got.items():
        assert p.requires_grad
        assert p.data.dtype == np.float64 and p.data.shape == want[name].shape, name
        assert np.array_equal(p.data.view(np.int64), want[name].view(np.int64)), name
    blocks = gru.gate_columns()
    assert list(blocks) == ["W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_n", "U_n", "b_n"]
    for name, (p, cols), block in zip(blocks, blocks.values(), draws):
        assert np.array_equal(p.data[..., cols].view(np.int64), block.view(np.int64)), name
    # the cell drew exactly these nine arrays, so the layers drawn after it do not move
    assert drawn.uniform() == rng.uniform()


def _sequence_net(batch=3, steps=5, seed=7):
    """encoder -> GRU unroll -> head over a batch-major (batch * steps) block."""
    rng = np.random.default_rng(seed)
    enc = Dense(4, 6, "relu", rng)
    gru = GRUCell(6, 5, rng)
    head = Dense(5, 3, "none", rng)
    obs = parameter(rng.standard_normal((batch * steps, 4)))
    weights = Tensor(rng.standard_normal((batch * steps, 3)))
    params = {"obs": obs}
    params.update(enc.parameters("enc."))
    params.update(gru.parameters("gru."))
    params.update(head.parameters("head."))
    return enc, gru, head, obs, weights, params


def test_gradcheck_gru_sequence():
    enc, gru, head, obs, weights, params = _sequence_net()

    def loss_fn():
        q = head(gru.sequence(enc(obs), 3, 5))
        return (tape_tanh(q * weights) * q).sum()

    # every entry, the encoder's and the raw input's included: they see only the sequence's dX
    report = check_gradients(loss_fn, params)
    assert report.ok(1e-4), f"max rel error {report.max_rel_error} at {report.worst_param}"


def test_gradcheck_two_chained_gru_steps():
    rng = np.random.default_rng(11)
    gru = GRUCell(4, 5, rng)
    x1 = parameter(rng.standard_normal((3, 4)))
    x2 = parameter(rng.standard_normal((3, 4)))
    h0 = parameter(rng.uniform(-0.9, 0.9, (3, 5)))
    weights = Tensor(rng.standard_normal((3, 5)))

    def loss_fn():
        h = gru.sequence(x2, 3, 1, h0=gru.sequence(x1, 3, 1, h0=h0))
        return (h * weights).sum() + (h * h).sum()

    params = {"x1": x1, "x2": x2, "h0": h0}
    params.update(gru.parameters("gru."))
    report = check_gradients(loss_fn, params)
    assert report.ok(1e-4), f"max rel error {report.max_rel_error} at {report.worst_param}"


def test_gradcheck_gru_bank_sequence_from_a_given_state():
    # three stacked cells, each slice on its own weights, from an h0 that takes gradients
    rng = np.random.default_rng(13)
    n, batch, steps, H = 3, 2, 4, 5
    bank = stack_layers([GRUCell(4, H, rng) for _ in range(n)])
    x = parameter(rng.standard_normal((n, batch * steps, 4)))
    h0 = parameter(rng.uniform(-0.9, 0.9, (n, batch, H)))
    weights = Tensor(rng.standard_normal((n, batch * steps, H)))

    def loss_fn():
        h = bank.sequence(x, batch, steps, h0=h0)
        return (h * weights).sum() + (h * h).sum()

    params = {"x": x, "h0": h0}
    params.update(bank.parameters("gru."))
    report = check_gradients(loss_fn, params)
    assert report.ok(1e-4), f"max rel error {report.max_rel_error} at {report.worst_param}"


def _close(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("batch, steps", [(1, 1), (2, 4), (8, 48)])
def test_gru_sequence_matches_composite_steps(batch, steps):
    enc, gru, head, obs, weights, params = _sequence_net(batch, steps, seed=batch + steps)
    # reference: one composite step per slot, each slot's rows picked on the tape
    h = Tensor(np.zeros((batch, gru.hidden_dim)))
    ref_h, ref_loss = [], None
    for t in range(steps):
        pick = Tensor(np.eye(batch * steps)[t::steps])
        h = _composite_step(gru, enc(tape_matmul(pick, obs)), h)
        ref_h.append(h.data)
        term = (head(h) * tape_matmul(pick, weights)).sum()
        ref_loss = term if ref_loss is None else ref_loss + term
    ref_loss.backward()
    ref_grads = {k: p.grad.copy() for k, p in params.items()}
    for p in params.values():
        p.grad = None

    h = gru.sequence(enc(obs), batch, steps)
    _close(h.data, np.stack(ref_h, axis=1).reshape(batch * steps, -1))
    (head(h) * weights).sum().backward()
    for k, p in params.items():
        _close(p.grad, ref_grads[k])


def test_gru_step_matches_composite_step():
    rng = np.random.default_rng(5)
    gru = GRUCell(4, 5, rng)
    x = parameter(rng.standard_normal((3, 4)))
    h0 = parameter(rng.uniform(-0.9, 0.9, (3, 5)))
    weights = Tensor(rng.standard_normal((3, 5)))
    params = {"x": x, "h0": h0}
    params.update(gru.parameters("gru."))
    grads = []
    for step in (lambda xx, hh: _composite_step(gru, xx, hh),
                 lambda xx, hh: gru.sequence(xx, 3, 1, h0=hh)):
        for p in params.values():
            p.grad = None
        h = step(x, step(x, h0))
        (h * weights).sum().backward()
        grads.append((h.data, {k: p.grad.copy() for k, p in params.items()}))
    (ref_h, ref_grads), (got_h, got_grads) = grads
    _close(got_h, ref_h)
    for k in params:
        _close(got_grads[k], ref_grads[k])


@pytest.mark.parametrize("steps", [1, 2, 48])
@pytest.mark.parametrize("lead", [(), (1,), (2,), (6,)])
@settings(max_examples=6, deadline=None)
@example(batch=8, hidden=64, given_state=True, taped=True, seed=0)  # a training batch's shape
@given(batch=st.sampled_from([1, 3, 8]), hidden=st.sampled_from([5, 64]),
       given_state=st.booleans(), taped=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_gru_slot_kernel_matches_the_reference_bit_for_bit(lead, batch, steps, hidden, given_state,
                                                           taped, seed):
    # sequence, its backward and step against the unroll as first written
    # (tests/gru_reference.py): the same hidden states and gradients, bit for bit
    rng = np.random.default_rng(seed)
    cells = [GRUCell(6, hidden, rng) for _ in range(lead[0] if lead else 1)]
    cell = stack_layers(cells) if lead else cells[0]
    for p in cell.parameters().values():
        p.requires_grad = taped
    x = Tensor(3.0 * rng.standard_normal((*lead, batch * steps, 6)), requires_grad=taped)
    h0 = Tensor(rng.uniform(-1.0, 1.0, (*lead, batch, hidden)), requires_grad=taped) if given_state else None
    g = rng.standard_normal((*lead, batch * steps, hidden))
    weights = {k: p.data for k, p in cell.parameters().items()}
    want, want_grads = reference_sequence(x.data, batch, steps, None if h0 is None else h0.data,
                                          **weights, g=g if taped else None)

    out = cell.sequence(x, batch, steps, h0)
    assert out.shape == want.shape and np.array_equal(_bits(out.data), _bits(want))
    assert out.requires_grad == taped
    if taped:
        (out * Tensor(g)).sum().backward()  # hands the unroll g itself
        got_grads = {"x": x.grad, "h0": None if h0 is None else h0.grad,
                     **{k: p.grad for k, p in cell.parameters().items()}}
        for name, want_grad in want_grads.items():
            got = got_grads[name]
            assert (got is None) == (want_grad is None), name
            if want_grad is not None:
                assert got.shape == want_grad.shape and np.array_equal(_bits(got), _bits(want_grad)), name

    x_slot = np.ascontiguousarray(x.data.reshape(*lead, batch, steps, 6)[..., 0, :])
    h = None if h0 is None else h0.data
    stepped = cell.step(x_slot, h)
    assert np.array_equal(_bits(stepped), _bits(reference_step(x_slot, h, **weights)))
    one_slot = cell.sequence(Tensor(x_slot), batch, 1, None if h0 is None else Tensor(h))
    assert np.array_equal(_bits(stepped), _bits(one_slot.data))


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("activation", ["relu", "none"])
@pytest.mark.parametrize("n", [None, 3])
def test_dense_call_matches_op_by_op_reference_bit_for_bit(n, activation, x_grad):
    # a single layer on (rows, in) input, or a bank of n on (n, rows, in)
    rng = np.random.default_rng(17)
    layers = [Dense(4, 5, activation, rng) for _ in range(n or 1)]
    layer = layers[0] if n is None else stack_layers(layers)
    lead = () if n is None else (n,)
    x = Tensor(rng.standard_normal((*lead, 6, 4)), requires_grad=x_grad)
    weights = Tensor(rng.standard_normal((*lead, 6, 5)))
    runs = []
    for forward in (tape_dense, lambda lay, xx: lay(xx)):
        for p in (x, layer.W, layer.b):
            p.grad = None
        out = forward(layer, x)
        (out * weights).sum().backward()
        runs.append([out.data, *(p.grad for p in (x, layer.W, layer.b))])
    (ref_out, *ref_grads), (got_out, *got_grads) = runs
    if activation == "relu":
        assert 0 < np.count_nonzero(ref_out) < ref_out.size  # the mask matters
    assert np.array_equal(_bits(got_out), _bits(ref_out))
    assert (got_grads[0] is None) == (ref_grads[0] is None) == (not x_grad)
    for name, got, want in zip(("x", "W", "b"), got_grads, ref_grads):
        if want is not None:
            assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want)), name


@pytest.mark.parametrize("n, shape", [(None, (6, 5)), (None, (2, 6, 4)), (None, (4,)),
                                      (3, (6, 4)), (3, (2, 6, 4))])
def test_dense_call_rejects_input_its_slices_cannot_take(n, shape):
    # a wrong feature count, or leading axes other than the bank's
    rng = np.random.default_rng(0)
    layer = Dense(4, 5, "relu", rng) if n is None else stack_layers(
        [Dense(4, 5, "relu", rng) for _ in range(n)])
    with pytest.raises(ValueError, match="in_dim"):
        layer(parameter(np.ones(shape)))


def test_dense_initialization_spread():
    rng = np.random.default_rng(0)
    layer = Dense(100, 50, "relu", rng)
    bound = 1.0 / np.sqrt(100)
    assert np.abs(layer.W.data).max() <= bound
    assert layer.W.data.std() > 0.1 * bound


def _composite_loss():
    """A loss through every layer type; returns (loss_fn, params)."""
    rng = np.random.default_rng(42)
    enc = (Dense(4, 8, "relu", rng), Dense(8, 6, "none", rng))
    gru = GRUCell(6, 5, rng)
    head = Dense(5, 3, "none", rng)
    mixer = MonotonicMixer(state_dim=4, n_agents=3, embed_dim=4, hyper_hidden=8, rng=rng)
    x = Tensor(rng.standard_normal((2, 4)))
    target = np.array([0.3, -0.7])

    def loss_fn():
        h = gru.sequence(enc[1](enc[0](x)), 2, 1)
        qs = head(h)
        tot = mixer.forward(x.data, qs)
        diff = tot - Tensor(target)
        return (diff * diff).sum()

    params = {}
    for i, layer in enumerate(enc):
        params.update(layer.parameters(f"enc.l{i}."))
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
    # the report names the worst entry and gives both of its slopes
    analytic, fd = report.worst_analytic, report.worst_fd
    assert analytic == params[report.worst_param].grad.reshape(-1)[report.worst_index]
    assert report.max_rel_error == abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
    assert fd == pytest.approx(1.01 * analytic, rel=1e-4)


def test_mixer_monotone_in_agent_values():
    rng = np.random.default_rng(3)
    mixer = MonotonicMixer(state_dim=6, n_agents=3, embed_dim=8, hyper_hidden=16, rng=rng)
    for _ in range(200):
        state = rng.standard_normal((1, 6))
        qs = rng.standard_normal((1, 3))
        base = mixer.forward(state, Tensor(qs)).data[0]
        for i in range(3):
            bumped = qs.copy()
            bumped[0, i] += 0.5
            up = mixer.forward(state, Tensor(bumped)).data[0]
            assert up >= base - 1e-9


def _mixer_bank(k, seed=8, state_dim=5, n_agents=3):
    """k mixers drawn in turn from one stream, then banked."""
    rng = np.random.default_rng(seed)
    return stack_layers([MonotonicMixer(state_dim, n_agents, embed_dim=4, hyper_hidden=6, rng=rng)
                         for _ in range(k)])


@pytest.mark.parametrize("k", [1, 2], ids=["qmix", "double_qmix"])
@pytest.mark.parametrize("qs_grad", [False, True], ids=["direct", "mixer_grad"])
def test_mixer_bank_matches_composite(k, qs_grad):
    bank = _mixer_bank(k)
    rng = np.random.default_rng(20 + k)
    R = 7
    state = rng.standard_normal((R, 5))
    qs = Tensor(rng.standard_normal((R, 3)), requires_grad=qs_grad)
    weights = rng.standard_normal((k, R))

    mixers = slice_mixers(bank)
    ref = [composite_mix(layers, Tensor(state), qs) for layers in mixers]
    sum(((m * Tensor(w)).sum() for m, w in zip(ref, weights)), Tensor(0.0)).backward()
    ref_qs_grad, qs.grad = qs.grad, None

    out = bank.forward(state, qs)
    want = np.stack([m.data for m in ref])
    assert np.array_equal(_bits(out.data), _bits(want))
    assert np.array_equal(_bits(bank.forward(state, Tensor(qs.data)).data), _bits(want))
    (out * Tensor(weights)).sum().backward()
    ref_grads = slice_grads(mixers)
    for name, p in bank.parameters().items():
        _close(p.grad, ref_grads[name])
    if qs_grad:
        _close(qs.grad, ref_qs_grad)
    else:
        assert qs.grad is None and ref_qs_grad is None


@pytest.mark.parametrize("k", [1, 2], ids=["qmix", "double_qmix"])
@pytest.mark.parametrize("qs_grad", [False, True], ids=["direct", "mixer_grad"])
def test_gradcheck_mixer_bank(k, qs_grad):
    bank = _mixer_bank(k, seed=12)
    rng = np.random.default_rng(30 + k)
    state = rng.standard_normal((4, 5))
    qs = Tensor(rng.standard_normal((4, 3)), requires_grad=qs_grad)
    target = Tensor(rng.standard_normal(4))

    def loss_fn():
        d = bank.forward(state, qs) - target
        return (d * d).sum()

    params = bank.parameters("mix.")
    if qs_grad:
        params["qs"] = qs
    report = check_gradients(loss_fn, params)
    assert report.ok(1e-4), f"max rel error {report.max_rel_error} at {report.worst_param}"


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


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_adam_rejects_a_non_finite_learning_rate(lr):
    # A NaN rate used to surface only as a DivergenceError after the first step.
    with pytest.raises(ValueError, match=f"^lr must be positive and finite, got {lr}$"):
        Adam({"w": parameter(np.array([1.0]))}, lr=lr)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    net = Dense(3, 4, "relu", rng)
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
    net = Dense(3, 4, "relu", rng)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, net.parameters("net."))
    arrays, _ = read_checkpoint(path)
    other = Dense(3, 5, "relu", rng)
    with pytest.raises(CheckpointError, match="shape"):
        restore_params(path, arrays, other.parameters("net."))
    renamed = Dense(3, 4, "relu", rng)
    with pytest.raises(CheckpointError, match="names do not match"):
        restore_params(path, arrays, renamed.parameters("other."))


def test_transpose_shapes_and_grad():
    ab = parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = ab.transpose()
    assert out.shape == (2, 2)
    assert out.data == pytest.approx(np.array([[1.0, 3.0], [2.0, 4.0]]))
    (out * Tensor(np.array([[1.0, 10.0], [100.0, 1000.0]]))).sum().backward()
    assert ab.grad == pytest.approx(np.array([[1.0, 100.0], [10.0, 1000.0]]))
    # a stack swaps the last two axes of each slice
    stacked = parameter(np.arange(12.0).reshape(2, 3, 2))
    out = stacked.transpose()
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out.data[1], stacked.data[1].T)
    (out * Tensor(np.arange(12.0).reshape(2, 2, 3))).sum().backward()
    assert np.array_equal(stacked.grad, np.arange(12.0).reshape(2, 2, 3).swapaxes(1, 2))
