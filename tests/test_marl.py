"""Learning engine: encoding, action grid, replay, targets, training loop."""

import json
import math
import sys
import zipfile
from dataclasses import fields, is_dataclass
from datetime import datetime
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcoop import core
from evcoop.config import build_scenario, load_config_dict
from evcoop.core import (
    ActionGrid,
    ConstraintViolation,
    EssParams,
    InfeasibleActionError,
    SlotLog,
    StationAction,
    StationState,
    StepOutcome,
    TradeOutcome,
    soc,
)
from evcoop.data import DemandModel, build_episode, synth_demand, synth_price_series, synth_pv_series
from evcoop.marl import (
    ALGORITHM_TRAITS,
    ALGORITHMS,
    DRQNAgent,
    EpisodeRecord,
    OBS_DIM,
    ObsScales,
    ReplayBuffer,
    TrainConfig,
    act_epsilon_greedy,
    build_learner,
    compute_targets,
    encode_observation,
    epsilon_at,
    load_learner,
    rollout_episode,
    save_learner,
    sync_targets,
    train,
    train_step,
)
from evcoop.marl.trainer import _target_values, _unroll, _values
from evcoop.nn import CheckpointError, Dense, GRUCell, MonotonicMixer, Tensor
from evcoop.oracle import random_tiny_instance
from evcoop.report import TRACE_HEADER, read_trace_csv, write_trace_csv
from csv_reference import csv_writer_bytes
from mixer_reference import composite_mix, slice_grads, slice_mixers, tape_reshape

PARAMS = EssParams()
SCALES = ObsScales()
GRID = ActionGrid()


def _tiny_episode(T=4, seed=0, stations=2):
    price = synth_price_series(T, seed=seed)
    pv = synth_pv_series(T, stations, seed=seed)
    model = DemandModel(profiles=((12.0,) * 24, (8.0,) * 24), noise_sigma=1.0)
    arrivals = synth_demand(model, T, stations, np.random.default_rng(seed))
    return build_episode(price, pv, arrivals, 0.5, PARAMS)


def _learner(algorithm="double_qmix", seed=0, **overrides):
    cfg = TrainConfig(episodes=10, batch_episodes=2, capacity=16, **overrides)
    return build_learner(algorithm, 2, PARAMS, GRID, SCALES, cfg,
                         np.random.default_rng(seed))


def test_observation_encoding_hand_values():
    states = (StationState(100.0, 5.0, 15.0), StationState(60.0, 2.0, 3.0))
    block = encode_observation(states, renewables=(10.0, 4.0), price_utility=0.2,
                               params=PARAMS, scales=SCALES)
    obs = block[0]
    assert obs == pytest.approx([25.0 / 100.0, 0.5, 5.0 / 25.0, 15.0 / 50.0,
                                 10.0 / 50.0, 0.2 / 0.1])
    assert obs.shape == (OBS_DIM,)


def test_action_grid_decodes_supply_levels():
    grid = ActionGrid()
    assert grid.n_actions == 3 * 5
    state = StationState(100.0, 4.0, 10.0)
    supplies, controls, mask = grid.decode_table(state, 0.0, PARAMS)
    # One supply level per demand fraction: urgent only, half, all.
    for e, frac in enumerate(grid.ev_fractions):
        for c in range(grid.cs_levels):
            idx = e * grid.cs_levels + c
            assert supplies[idx] == pytest.approx(4.0 + frac * 10.0)
    assert mask.all()
    blocks = grid.blocks(state, 0.0, PARAMS)
    action = grid.action(blocks, 0)
    assert action.ev_supply == pytest.approx(4.0)
    for index in (-1, grid.n_actions):
        with pytest.raises(InfeasibleActionError,
                           match=f"^action index {index} outside grid of 15$"):
            grid.action(blocks, index)


def test_action_grid_blocks_infeasible_fraction():
    tight = EssParams(capacity_max=100.0, import_cap=5.0)
    state = StationState(10.0, 1000.0, 0.0)
    with pytest.raises(InfeasibleActionError):
        ActionGrid().decode_table(state, 0.0, tight)


# A demand of -inf is not here: StationState rejects negative demand.
@pytest.mark.parametrize("field, bad", [
    (field, bad) for field in ("battery_kwh", "urgent_demand", "regular_demand", "renewable")
    for bad in (math.nan, math.inf, -math.inf) if not (field.endswith("_demand") and bad < 0)])
def test_decode_table_rejects_non_finite_input_as_decode_batch_does(field, bad):
    values = {"battery_kwh": 100.0, "urgent_demand": 1.0, "regular_demand": 2.0, field: bad}
    renewable = values.pop("renewable", 3.0)
    state = StationState(**values)
    with pytest.raises(ConstraintViolation, match=f"^{field} {bad} is not finite$"):
        GRID.decode_table(state, renewable, PARAMS)
    with pytest.raises(ConstraintViolation, match=f"^{field} {bad} is not finite$"):
        GRID.blocks(state, renewable, PARAMS)
    rows = [np.array([[v]]) for v in (state.battery_kwh, state.urgent_demand,
                                       state.regular_demand)]
    with pytest.raises(ConstraintViolation, match=f"^station 0: {field} {bad} is not finite"):
        GRID.decode_batch(*rows, [renewable], PARAMS)


@pytest.mark.parametrize("field, bad", [
    ("lr_agent", math.nan), ("lr_mixer", math.inf), ("reward_scale", math.nan),
    ("reward_scale", math.inf),
])
def test_train_config_rejects_non_finite_rates_and_scale(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got {bad}$"):
        TrainConfig(**{field: bad})


@pytest.mark.parametrize("field", [f.name for f in fields(ObsScales)])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_obs_scales_reject_a_non_finite_scale(field, bad):
    # An infinite divisor would read every observation's feature as 0.0.
    with pytest.raises(ValueError, match=f"^scale {field} must be positive and finite, got {bad}$"):
        ObsScales(**{field: bad})


@pytest.mark.parametrize("build, field, bad", [
    (ActionGrid, "cs_levels", 2.5),
    *[(TrainConfig, name, bad) for name, bad in (
        ("episodes", 2.5), ("target_period", 1.5), ("batch_episodes", 8.0), ("capacity", 8.5),
        ("hidden_dim", 3.5), ("embed_dim", "32"), ("hyper_hidden", None))],
])
def test_integer_fields_reject_values_that_are_not_ints(build, field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an int, got {bad!r}$"):
        build(**{field: bad})


def test_epsilon_schedule_endpoints():
    cfg = TrainConfig(episodes=300)
    assert epsilon_at(cfg, 0) == pytest.approx(1.0)
    assert epsilon_at(cfg, 75) == pytest.approx(1.0 + 0.5 * (0.05 - 1.0))
    assert epsilon_at(cfg, 150) == pytest.approx(0.05)
    assert epsilon_at(cfg, 299) == pytest.approx(0.05)


def test_exploration_respects_mask_and_uniformity():
    learner = _learner()
    q, _ = learner.agents_eval.step(np.zeros((2, 1, OBS_DIM)), None)
    q = q[0]  # station 0's row, (1, A)
    mask = np.zeros((1, GRID.n_actions), dtype=bool)
    feasible = [1, 4, 7, 10, 13]
    mask[0, feasible] = True
    rng = np.random.default_rng(0)
    counts = {a: 0 for a in feasible}
    for _ in range(3000):
        [a] = act_epsilon_greedy(q, epsilon=1.0, masks=mask, rng=rng)
        counts[a] += 1
    assert sum(counts.values()) == 3000
    expect = 3000 / len(feasible)
    for a in feasible:
        assert abs(counts[a] - expect) < 5 * np.sqrt(3000 * 0.2 * 0.8)
    # Greedy needs no randomness source at all, and takes the best feasible action.
    [a] = act_epsilon_greedy(q, epsilon=0.0, masks=mask, rng=None)
    assert a == feasible[int(np.argmax(q[0, feasible]))]
    with pytest.raises(ValueError, match="requires an rng"):
        act_epsilon_greedy(q, epsilon=0.5, masks=mask, rng=None)
    with pytest.raises(ValueError, match="empty feasibility mask"):
        act_epsilon_greedy(q, epsilon=0.0, masks=np.zeros_like(mask), rng=None)


def test_replay_buffer_eviction_and_sampling():
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(capacity=3, rng=rng)
    records = []
    for k in range(5):
        rec, _ = rollout_episode(_tiny_episode(seed=k), _learner(seed=k),
                                 epsilon=1.0, rng=np.random.default_rng(k))
        records.append(rec)
        buf.add(rec)
    assert len(buf) == 3
    batch = buf.sample(4)  # replacement allows batches beyond the population
    assert len(batch) == 4
    for rec in batch:
        assert any(rec is kept for kept in records[2:])


def test_episode_record_rejects_nonfinite_reward():
    rec, _ = rollout_episode(_tiny_episode(), _learner(), 1.0, np.random.default_rng(0))
    bad = rec.rewards.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        EpisodeRecord(obs=rec.obs, actions=rec.actions,
                      masks=rec.masks, rewards=bad,
                      total_profits=rec.total_profits,
                      station_profits=rec.station_profits)


def _batch(learner, n=3):
    out = []
    for k in range(n):
        rec, _ = rollout_episode(_tiny_episode(seed=k), learner, 1.0,
                                 np.random.default_rng(k))
        out.append(rec)
    return out


def _stacked(batch):
    """The batch's arrays, with each slot's global state: all its observations in one row."""
    obs, actions, masks, rewards = (np.stack([getattr(r, name) for r in batch])
                                    for name in ("obs", "actions", "masks", "rewards"))
    return obs, obs.reshape(*obs.shape[:2], -1), actions, masks, rewards


def _targets(batch, learner):
    obs, states, _, masks, rewards = _stacked(batch)
    q_eval = _reference_unroll(_station_agents(learner.agents_eval), obs)
    return compute_targets(batch, states, masks, rewards, q_eval, learner)


def _station_agents(bank):
    """Station i's encoder, GRU and head as separate layers holding copies of slice i."""
    stations = []
    rng = np.random.default_rng(0)  # every draw is overwritten below
    for i in range(bank.encoder.W.shape[0]):
        layers = (Dense(bank.encoder.in_dim, bank.encoder.out_dim, "relu", rng),
                  GRUCell(bank.gru.in_dim, bank.gru.hidden_dim, rng),
                  Dense(bank.head.in_dim, bank.head.out_dim, "none", rng))
        for layer, stacked in zip(layers, (bank.encoder, bank.gru, bank.head)):
            for p, ps in zip(layer.parameters().values(), stacked.parameters().values()):
                p.data = ps.data[i].copy()
        stations.append(layers)
    return stations


def _station_grads(stations, bank, prefix="agents."):
    """The stations' gradients stacked into the bank's layout, under its parameter names."""
    per_station = [{} for _ in stations]
    for grads, (enc, gru, head) in zip(per_station, stations):
        for layer, name in ((enc, "enc."), (gru, "gru."), (head, "head.")):
            grads.update({k: p.grad for k, p in layer.parameters(f"{prefix}{name}").items()})
    return {k: np.stack([g[k] for g in per_station]) for k in bank.parameters(prefix)}


def _columns(cols):
    """(B,) tape tensors side by side as a (B, len) tensor."""
    n = len(cols)
    return sum(tape_reshape(c, c.shape[0], 1) * Tensor(np.eye(n)[i:i + 1]) for i, c in enumerate(cols))


# Reference: the learner step as first written, one slot at a time, with a
# separate agent per station, a second unroll of the eval agents (values
# only) for the targets and one composite mixer call per mixer and slot.
# train_step runs the agent and mixer banks, mixes all slots at once and
# reuses its taped unroll, so it may differ from this only in summation order.

def _reference_unroll(stations, obs):
    """Q-values for every slot as one array: (B, T, I, 6) -> (B, T, I, A)."""
    B, T, n, _ = obs.shape
    out = np.zeros((B, T, n, stations[0][2].out_dim))
    for i, (enc, gru, head) in enumerate(stations):
        h = None
        for t in range(T):
            h = gru.sequence(enc(Tensor(obs[:, t, i, :])), B, 1, h0=h)
            out[:, t, i, :] = head(h).data
    return out


def _reference_targets(obs, states, masks, rewards, learner):
    """The bootstrap targets y and each target mixer's (B, T-1) values, mixer A first."""
    B, T, n, _ = obs.shape
    gamma = learner.config.gamma
    q_target = _reference_unroll(_station_agents(learner.agents_target), obs)
    if learner.algorithm == "independent_dqn":
        y = np.repeat(rewards[:, :, None], n, axis=2)
        best_next = np.max(np.where(masks, q_target, -np.inf), axis=-1)
        y[:, :-1, :] += gamma * best_next[:, 1:, :]
        return y, []
    selector = (_reference_unroll(_station_agents(learner.agents_eval), obs)
                if learner.algorithm == "double_qmix" else q_target)
    next_actions = np.argmax(np.where(masks, selector, -np.inf), axis=-1)
    chosen = np.take_along_axis(q_target, next_actions[..., None], axis=-1)[..., 0]
    y = rewards.astype(np.float64).copy()
    flat_states = Tensor(states[:, 1:, :].reshape(B * (T - 1), -1))
    flat_q = Tensor(chosen[:, 1:, :].reshape(B * (T - 1), n))
    mixes = [composite_mix(layers, flat_states, flat_q).data.reshape(B, T - 1)
             for layers in slice_mixers(learner.mixers_target)]
    y[:, :-1] += gamma * np.minimum.reduce(mixes)
    return y, mixes


def _reference_loss(batch, learner):
    """(l_mix, agent losses, gradients of every eval parameter) of one step."""
    obs, states, actions, masks, rewards = _stacked(batch)
    B, T, n, _ = obs.shape
    scale = 1.0 / (B * T)
    y, _ = _reference_targets(obs, states, masks, rewards, learner)
    stations = _station_agents(learner.agents_eval)
    chosen = []
    for i, (enc, gru, head) in enumerate(stations):
        h = None
        per_slot = []
        for t in range(T):
            h = gru.sequence(enc(Tensor(obs[:, t, i, :])), B, 1, h0=h)
            per_slot.append(head(h).gather(actions[:, t, i]))
        chosen.append(per_slot)
    independent = learner.algorithm == "independent_dqn"
    direct = learner.config.agent_loss_mode == "direct"
    total = l_mix = None
    agent_losses = []
    if not independent:
        mixers = slice_mixers(learner.mixers_eval)
        acc = None
        for t in range(T):
            qs_t = _columns([chosen[i][t].detach() if direct else chosen[i][t]
                             for i in range(n)])
            st_t = Tensor(states[:, t, :])
            y_t = Tensor(y[:, t])
            term = None
            for layers in mixers:
                d = composite_mix(layers, st_t, qs_t) - y_t
                term = (d * d).sum() if term is None else term + (d * d).sum()
            acc = term if acc is None else acc + term
        total = acc * scale
        l_mix = float(total.item())
    if independent or direct:
        for i in range(n):
            acc = None
            for t in range(T):
                d = chosen[i][t] - Tensor(y[:, t, i] if independent else y[:, t])
                term = (d * d).sum()
                acc = term if acc is None else acc + term
            loss_i = acc * scale
            agent_losses.append(float(loss_i.item()))
            total = loss_i if total is None else total + loss_i
    else:
        for i in range(n):
            vals = np.stack([chosen[i][t].data for t in range(T)], axis=1)
            agent_losses.append(float(np.mean((vals - y) ** 2)))
    for p in learner.parameters("eval").values():
        p.grad = None
    total.backward()
    grads = {k: p.grad for k, p in learner.parameters("eval").items() if p.grad is not None}
    grads.update(_station_grads(stations, learner.agents_eval))
    if not independent:
        grads.update(slice_grads(mixers, "mixers."))
    return l_mix, agent_losses, grads


def test_double_targets_take_pessimistic_mixture():
    learner = _learner("double_qmix")
    batch = _batch(learner)
    rewards = np.stack([r.rewards for r in batch])
    t = _targets(batch, learner)
    assert t.mix_b is not None
    # Terminal slot bootstraps nothing.
    assert t.y[:, -1] == pytest.approx(rewards[:, -1])
    both = np.minimum(t.mix_a[:, :-1], t.mix_b[:, :-1])
    assert t.y[:, :-1] == pytest.approx(rewards[:, :-1] + learner.config.gamma * both)
    # The bound the pessimistic mixture guarantees: y never exceeds either head.
    ceiling = rewards[:, :-1] + learner.config.gamma * t.mix_a[:, :-1]
    assert np.all(t.y[:, :-1] <= ceiling + 1e-9)


def test_single_mixer_targets_use_one_head():
    learner = _learner("qmix")
    batch = _batch(learner)
    rewards = np.stack([r.rewards for r in batch])
    t = _targets(batch, learner)
    assert t.mix_b is None
    assert t.y[:, :-1] == pytest.approx(rewards[:, :-1] + learner.config.gamma * t.mix_a[:, :-1])


@pytest.mark.parametrize("algorithm", ["double_qmix", "qmix"])
def test_mixer_bank_keeps_the_draw_order(algorithm):
    # drawn after the agents as mixer A's eval and target nets, then mixer B's
    learner = _learner(algorithm, seed=6)
    cfg = learner.config
    rng = np.random.default_rng(6)
    for _ in ("eval", "target"):
        DRQNAgent(2, OBS_DIM, GRID.n_actions, cfg.hidden_dim, rng)
    k = 2 if algorithm == "double_qmix" else 1
    drawn = [MonotonicMixer(2 * OBS_DIM, 2, cfg.embed_dim, cfg.hyper_hidden, rng)
             for _ in range(2 * k)]
    for name, p in learner.mixers_eval.parameters().items():
        assert p.shape[0] == k, name
        for j in range(k):
            assert np.array_equal(p.data[j], drawn[2 * j].parameters()[name].data), name


def test_double_qmix_mixers_are_drawn_independently():
    # the paper's two independently initialized mixers: A and B share no parameter array
    learner = _learner("double_qmix")
    for name, p in learner.mixers_eval.parameters().items():
        assert not np.array_equal(p.data[0], p.data[1]), name


@pytest.mark.parametrize("algorithm", ["double_qmix", "qmix", "independent_dqn"])
def test_target_mixes_match_composite_bit_for_bit(algorithm):
    # independent_dqn has no mixer; its y, the target agents' masked max, is pinned too
    learner = _learner(algorithm)
    rng = np.random.default_rng(2)
    for p in learner.parameters("target").values():
        p.data = p.data + rng.normal(0.0, 0.1, p.shape)
    batch = _batch(learner)
    obs, states, _, masks, rewards = _stacked(batch)
    t = _targets(batch, learner)
    y, want = _reference_targets(obs, states, masks, rewards, learner)
    assert np.array_equal(_bits(t.y), _bits(y))
    got = [mix for mix in (t.mix_a, t.mix_b) if mix is not None]
    assert len(got) == len(want) == {"double_qmix": 2, "qmix": 1, "independent_dqn": 0}[algorithm]
    for mix, ref in zip(got, want):
        assert np.array_equal(_bits(mix[:, :-1]), _bits(ref))
        assert np.isnan(mix[:, -1]).all()


def _full_unroll(records, learner):
    """The target agents' (B, T, I, A) values of ``records`` from one fresh unroll of them all."""
    obs = np.stack([r.obs for r in records])
    return _values(_unroll(learner.agents_target, obs).data, *obs.shape[:2])


@pytest.mark.parametrize("uncached", range(1, 9))
def test_cached_target_values_match_a_full_batch_unroll_bit_for_bit(uncached):
    learner = _learner("double_qmix")
    records = _batch(learner, n=8)
    want = _full_unroll(records, learner)
    cached = records[uncached:]
    if cached:  # held from an earlier batch of 8 that sampled only these
        _target_values((cached * 8)[:8], learner)
    assert len(learner.target_values) == 8 - uncached
    order = np.random.default_rng(uncached).permutation(8)
    got = _target_values([records[b] for b in order], learner)
    assert np.array_equal(_bits(got), _bits(want[order]))
    assert len(learner.target_values) == 8


def test_a_lone_uncached_episode_keeps_the_bits_of_its_batch():
    learner = _learner("double_qmix")
    records = _batch(learner, n=8)
    want = _full_unroll(records, learner)
    # sampled eight times: unrolled once, in two rows, as the batch of 8 would give it
    got = _target_values([records[0]] * 8, learner)
    assert np.array_equal(_bits(got), _bits(np.repeat(want[:1], 8, axis=0)))
    assert len(learner.target_values) == 1
    # a batch of one unrolls one row, as it did before any value was cached
    alone = _learner("double_qmix")
    got = _target_values(records[1:2], alone)
    assert np.array_equal(_bits(got), _bits(_full_unroll(records[1:2], alone)))


@pytest.mark.parametrize("change", ["sync", "reassign"])
def test_no_cached_target_value_outlives_its_target_arrays(change):
    learner = _learner("double_qmix")
    records = _batch(learner, n=2)
    before = _target_values(records, learner)
    if change == "sync":  # the eval agents move, then the targets follow them
        rng = np.random.default_rng(8)
        for p in learner.agents_eval.parameters().values():
            p.data = p.data + rng.normal(0.0, 0.1, p.shape)
        sync_targets(learner)
    else:  # one target parameter alone, the last the bank lists
        head_b = learner.agents_target.parameters()["head.b"]
        head_b.data = head_b.data + 0.5
    got = _target_values(records, learner)
    assert np.array_equal(_bits(got), _bits(_full_unroll(records, learner)))
    assert not np.any(got == before)


def _tied_learners():
    """double_qmix with mixer B set equal to mixer A, and qmix holding its agents
    and mixer A; both synced, so every target net equals its eval net."""
    double, single = _learner("double_qmix", seed=3), _learner("qmix", seed=4)
    for p in double.mixers_eval.parameters().values():
        p.data[1] = p.data[0]
    drawn = double.parameters("eval")
    for name, p in single.parameters("eval").items():
        p.data = drawn[name].data[:p.shape[0]].copy()   # a qmix bank holds mixer A only
    sync_targets(double)
    sync_targets(single)
    return double, single


def test_double_qmix_with_tied_mixers_is_qmix():
    # The paper's mechanism is the second mixer: with B tied to A, the min of
    # the two target mixers is A's value and double_qmix's targets are qmix's.
    double, single = _tied_learners()
    batch = _batch(double)
    got, want = _targets(batch, double), _targets(batch, single)
    assert np.array_equal(_bits(got.mix_a), _bits(got.mix_b))
    assert np.array_equal(_bits(got.mix_a), _bits(want.mix_a))
    assert np.array_equal(_bits(got.y), _bits(want.y))


def test_raising_mixer_b_leaves_double_qmix_targets_alone():
    # Adding c to mixer B's state value V(s) (the bias of hyper_b2.l1) raises
    # B's mix by c, so the min still picks A and y stays as it was; lowering it
    # by c lowers every bootstrapped y by gamma * c.
    double, _ = _tied_learners()
    batch = _batch(double)
    tied = _targets(batch, double)
    bias = double.mixers_eval.parameters()["hyper_b2.l1.b"]
    c, gamma = 0.5, double.config.gamma
    for shift, drop in ((c, 0.0), (-c, gamma * c)):
        bias.data[1] = bias.data[0] + shift
        sync_targets(double)
        moved = _targets(batch, double)
        assert moved.mix_b[:, :-1] == pytest.approx(tied.mix_a[:, :-1] + shift, abs=1e-12)
        if drop == 0.0:
            assert np.array_equal(_bits(moved.y), _bits(tied.y))
        assert moved.y[:, :-1] == pytest.approx(tied.y[:, :-1] - drop, abs=1e-12)
        assert np.array_equal(_bits(moved.y[:, -1]), _bits(tied.y[:, -1]))


def test_qmix_targets_ignore_the_eval_agents():
    # Only the eval agents move (no sync).  qmix's target nets pick their own
    # next actions, so its y keeps every bit; double_qmix's eval agents pick
    # them, so its y is the target mix at the perturbed eval agents' argmax.
    for algorithm in ("qmix", "double_qmix"):
        learner = _learner(algorithm, seed=5)
        batch = _batch(learner)
        obs, states, _, masks, rewards = _stacked(batch)
        B, T, n, _ = obs.shape
        picks = lambda: np.argmax(np.where(masks, _reference_unroll(
            _station_agents(learner.agents_eval), obs), -np.inf), axis=-1)
        before, picked_before = _targets(batch, learner), picks()
        rng = np.random.default_rng(7)
        for p in learner.agents_eval.parameters().values():
            p.data = p.data + rng.normal(0.0, 0.5, p.shape)
        after, picked = _targets(batch, learner), picks()
        assert np.any(picked[:, 1:] != picked_before[:, 1:])  # the perturbation moves the argmax
        if algorithm == "qmix":
            assert np.array_equal(_bits(after.y), _bits(before.y))
            continue
        q_target = _reference_unroll(_station_agents(learner.agents_target), obs)
        chosen = np.take_along_axis(q_target, picked[..., None], axis=-1)[:, 1:, :, 0]
        mixes = learner.mixers_target.forward(states[:, 1:, :].reshape(B * (T - 1), -1),
                                              Tensor(chosen.reshape(B * (T - 1), n))).data
        want = rewards.astype(np.float64)
        want[:, :-1] += learner.config.gamma * mixes.reshape(2, B, T - 1).min(axis=0)
        assert np.array_equal(_bits(after.y), _bits(want))
        assert not np.array_equal(_bits(after.y), _bits(before.y))


def test_independent_targets_per_agent():
    learner = _learner("independent_dqn")
    batch = _batch(learner)
    t = _targets(batch, learner)
    assert t.y.shape == (3, 4, 2)
    assert t.mix_a is None


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_learner_is_built_from_its_algorithm_row(algorithm):
    traits = ALGORITHM_TRAITS[algorithm]
    learner = _learner(algorithm)
    for bank in (learner.mixers_eval, learner.mixers_target):
        size = 0 if bank is None else bank.parameters()["hyper_b2.l1.b"].shape[0]
        assert size == traits.mixers
    assert (learner.opt_agents is not None) == traits.trains
    assert (learner.opt_mixers is not None) == (traits.trains and traits.mixers > 0)
    if not traits.trains:
        with pytest.raises(ValueError, match="does not train"):
            train_step(_batch(learner, n=2), learner)


def test_sync_copies_eval_into_target():
    learner = _learner("double_qmix")
    for p in learner.parameters("eval").values():
        p.data += 0.1
    sync_targets(learner)
    eval_params = learner.parameters("eval")
    for name, tgt in learner.parameters("target").items():
        assert np.array_equal(tgt.data, eval_params[name].data)
        assert tgt.data is not eval_params[name].data


def test_rollout_deterministic_given_seed():
    learner = _learner()
    ep = _tiny_episode()
    rec1, _ = rollout_episode(ep, learner, 0.7, np.random.default_rng(9))
    rec2, _ = rollout_episode(ep, learner, 0.7, np.random.default_rng(9))
    assert np.array_equal(rec1.actions, rec2.actions)
    assert rec1.rewards == pytest.approx(rec2.rewards)


def test_rollout_computes_each_control_interval_once(monkeypatch):
    # The decode's blocks already hold every supply fraction's interval, so
    # the slot is settled on them instead of computing the chosen one again.
    real = core.control_intervals
    calls = []

    def counting(battery, renewable, supplies, params):
        calls.append(len(supplies))
        return real(battery, renewable, supplies, params)

    holders = [(name, attr) for name, module in list(sys.modules.items())
               if name.split(".")[0] == "evcoop" for attr, value in vars(module).items()
               if value is real]
    assert {name for name, _ in holders} == {"evcoop", "evcoop.core"}  # the package re-exports it
    for name, attr in holders:
        monkeypatch.setattr(sys.modules[name], attr, counting)
    T, n = 8, 6
    learner = build_learner("double_qmix", n, PARAMS, GRID, SCALES, TrainConfig(),
                            np.random.default_rng(0))
    rollout_episode(_tiny_episode(T=T, stations=n), learner, 0.5, np.random.default_rng(1))
    assert len(calls) == T * n


LOSS_CASES = [
    pytest.param("double_qmix", "direct", id="double_qmix"),
    pytest.param("qmix", "direct", id="qmix"),
    pytest.param("independent_dqn", "direct", id="independent_dqn"),
    pytest.param("double_qmix", "mixer_grad", id="double_qmix-mixer_grad"),
    pytest.param("qmix", "mixer_grad", id="qmix-mixer_grad"),
]


@pytest.mark.parametrize("algorithm, mode", LOSS_CASES)
def test_train_step_reduces_loss_on_fixed_batch(algorithm, mode):
    learner = _learner(algorithm, agent_loss_mode=mode)
    batch = _batch(learner, n=2)
    agent_params = {k: p for k, p in learner.parameters("eval").items() if k.startswith("agent")}
    before = {k: p.data.copy() for k, p in agent_params.items()}
    losses = []
    for _ in range(40):
        l_mix, agent_losses, _ = train_step(batch, learner)
        losses.append(l_mix if l_mix is not None else float(np.mean(agent_losses)))
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]
    # In either mode every agent parameter learns: from its own regression
    # or from the gradient that flows back through the mixer.
    for k, p in agent_params.items():
        assert not np.array_equal(p.data, before[k]), k


@pytest.mark.parametrize("algorithm, mode", LOSS_CASES)
def test_train_step_matches_per_slot_reference(algorithm, mode):
    learner = _learner(algorithm, agent_loss_mode=mode)
    batch = _batch(learner, n=3)
    # Targets apart from eval, so the agents that pick next actions matter.
    rng = np.random.default_rng(1)
    for p in learner.parameters("target").values():
        p.data = p.data + rng.normal(0.0, 0.1, p.shape)
    ref_mix, ref_agents, ref_grads = _reference_loss(batch, learner)
    params = learner.parameters("eval")
    assert set(ref_grads) == set(params)
    l_mix, agent_losses, _ = train_step(batch, learner)
    if ref_mix is None:
        assert l_mix is None
    else:
        assert l_mix == pytest.approx(ref_mix, rel=1e-12, abs=0.0)
    assert agent_losses == pytest.approx(ref_agents, rel=1e-12, abs=0.0)
    for k, p in params.items():
        scale = np.max(np.abs(ref_grads[k]))
        assert scale > 0.0, k
        assert np.max(np.abs(p.grad - ref_grads[k])) <= 1e-12 * scale, k


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("batch", [1, 8])
def test_agent_bank_matches_separately_built_agents_bit_for_bit(n, batch):
    T, H, A = 5, 7, GRID.n_actions
    bank = DRQNAgent(n, OBS_DIM, A, H, np.random.default_rng(n))
    # the per-station agents as first built: encoder, GRU and head drawn in turn
    rng = np.random.default_rng(n)
    stations = [(Dense(OBS_DIM, H, "relu", rng), GRUCell(H, H, rng), Dense(H, A, "none", rng))
                for _ in range(n)]
    for i, (enc, gru, head) in enumerate(stations):
        for layer, stacked in zip((enc, gru, head), (bank.encoder, bank.gru, bank.head)):
            for p, ps in zip(layer.parameters().values(), stacked.parameters().values()):
                assert np.array_equal(_bits(ps.data[i]), _bits(p.data))

    data = np.random.default_rng(100 + n)
    obs = data.standard_normal((n, batch * T, OBS_DIM))
    weights = data.standard_normal((n, batch * T, A))
    h0 = data.uniform(-0.9, 0.9, (n, batch, H))
    q = bank.head(bank.gru.sequence(bank.encoder(Tensor(obs)), batch, T))
    h_step = bank.gru.sequence(bank.encoder(Tensor(obs[:, :batch])), batch, 1, h0=Tensor(h0))
    q_step = bank.head(h_step)
    ((q * Tensor(weights)).sum() + (q_step * Tensor(weights[:, :batch])).sum()
     + (h_step * h_step).sum()).backward()
    for i, (enc, gru, head) in enumerate(stations):
        q_i = head(gru.sequence(enc(Tensor(obs[i])), batch, T))
        h_i = gru.sequence(enc(Tensor(obs[i, :batch])), batch, 1, h0=Tensor(h0[i]))
        assert np.array_equal(_bits(q.data[i]), _bits(q_i.data))
        assert np.array_equal(_bits(q_step.data[i]), _bits(head(h_i).data))
        assert np.array_equal(_bits(h_step.data[i]), _bits(h_i.data))
        ((q_i * Tensor(weights[i])).sum() + (head(h_i) * Tensor(weights[i, :batch])).sum()
         + (h_i * h_i).sum()).backward()
    for k, g in _station_grads(stations, bank, prefix="").items():
        assert np.array_equal(_bits(bank.parameters()[k].grad), _bits(g)), k


@pytest.mark.parametrize("given_state", [False, True])
@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("batch", [1, 3])
def test_agent_step_matches_taped_one_slot_sequences_bit_for_bit(n, batch, given_state):
    # the rollout's untaped slots, chained, against encoder -> one-slot sequence -> head
    H, A, slots = 7, GRID.n_actions, 4
    bank = DRQNAgent(n, OBS_DIM, A, H, np.random.default_rng(30 + n))
    data = np.random.default_rng(40 + 2 * n + batch)
    obs = data.standard_normal((slots, n, batch, OBS_DIM))
    h = data.uniform(-0.9, 0.9, (n, batch, H)) if given_state else None
    h_ref = None if h is None else Tensor(h)
    for t in range(slots):
        q, h = bank.step(obs[t], h)
        h_ref = bank.gru.sequence(bank.encoder(Tensor(obs[t])), batch, 1, h0=h_ref)
        q_ref = bank.head(h_ref)
        assert type(q) is np.ndarray and type(h) is np.ndarray
        assert np.array_equal(_bits(q), _bits(q_ref.data)), t
        assert np.array_equal(_bits(h), _bits(h_ref.data)), t
    with pytest.raises(ValueError, match="expected h"):
        bank.step(obs[0], np.zeros((n, batch + 1, H)))


def _encode_one(states, station, renewable, price_utility, params, scales):
    """One station's observation as first written, one call per station."""
    own = states[station]
    demand_all = sum(s.total_demand for s in states)
    raw = np.array([demand_all, soc(own, params), own.urgent_demand, own.regular_demand,
                    renewable, price_utility])
    return raw / scales.as_array()


_kwh = st.floats(0.0, 500.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_kwh, _kwh, _kwh, _kwh), min_size=1, max_size=8),
       st.floats(0.0, 2.0), st.floats(50.0, 1000.0),
       st.lists(st.floats(1e-3, 1e3), min_size=6, max_size=6))
def test_encode_observation_block_matches_per_station_formula_bit_for_bit(
        stations, price, capacity, scale_values):
    states = tuple(StationState(b, u, r) for b, u, r, _ in stations)
    renewables = tuple(g for *_, g in stations)
    params = EssParams(capacity_max=capacity)
    scales = ObsScales(*scale_values)
    block = encode_observation(states, renewables, price, params, scales)
    want = np.stack([_encode_one(states, i, renewables[i], price, params, scales)
                     for i in range(len(states))])
    assert block.shape == (len(states), OBS_DIM)
    assert np.array_equal(_bits(block), _bits(want))


def _act_one(q, epsilon, mask, rng):
    """One station's epsilon-greedy action as first written, one call per station."""
    feasible = np.flatnonzero(mask)
    if feasible.size == 0:
        raise ValueError("empty feasibility mask")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an rng")
        if rng.random() < epsilon:
            return int(feasible[rng.integers(feasible.size)])
    return int(np.argmax(np.where(mask, q, -np.inf)))


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), n_actions=st.integers(1, 15))
def test_act_epsilon_greedy_matches_per_station_draws(epsilon, seed, n, n_actions):
    data = np.random.default_rng(seed)
    rng, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(10):
        q = data.integers(-2, 3, (n, n_actions)).astype(float)  # small integers: many ties
        masks = data.random((n, n_actions)) < data.uniform(0.1, 1.0)
        masks[np.arange(n), data.integers(n_actions, size=n)] = True  # every row feasible
        got = act_epsilon_greedy(q, epsilon, masks, rng)
        want = [_act_one(q[i], epsilon, masks[i], rng_ref) for i in range(n)]
        assert got.tolist() == want
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    if epsilon == 0.0:
        assert act_epsilon_greedy(q, epsilon, masks, None).tolist() == want


def _write_trace_one_cell_at_a_time(path, trace, params):
    """write_trace_csv as first written: one cell per value, through ``csv.writer``."""
    rows = [[t, i, log.quote.utility, log.renewables[i],
             state.urgent_demand, state.regular_demand,
             log.actions[i].ev_supply, log.actions[i].ess_control,
             log.outcome.trade.matched_buy[i], log.outcome.trade.matched_sell[i],
             log.outcome.trade.utility_buy[i], log.outcome.trade.utility_sell[i],
             state.battery_kwh, state.battery_kwh / params.capacity_max,
             log.outcome.station_profit[i], log.outcome.curtailed_kwh[i]]
            for t, log in enumerate(trace) for i, state in enumerate(log.states)]
    path.write_bytes(csv_writer_bytes(TRACE_HEADER, rows))


@pytest.mark.parametrize("stations, epsilon", [(2, 0.5), (6, 0.0), (6, 1.0)])
def test_trace_csv_bytes_match_the_cell_by_cell_writer(tmp_path, stations, epsilon):
    cfg = load_config_dict({"scenario": {"mode": "synthetic", "station_count": stations,
                                         "horizon": 12}})
    price, pv, demand, _ = build_scenario(cfg)
    rng = np.random.default_rng(stations)
    learner = build_learner("double_qmix", stations, cfg.ess, cfg.grid, cfg.scales,
                            TrainConfig(episodes=1, batch_episodes=1, capacity=1), rng)
    episode = build_episode(price, pv, synth_demand(demand, len(price), stations, rng=rng),
                            cfg.scenario.initial_soc, cfg.ess)
    _, trace = rollout_episode(episode, learner, epsilon, rng, collect_trace=True)
    write_trace_csv(tmp_path / "new.csv", trace, cfg.ess)
    _write_trace_one_cell_at_a_time(tmp_path / "old.csv", trace, cfg.ess)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _numbers(obj):
    """Every leaf of nested dataclasses, tuples and lists, timestamps left out."""
    if is_dataclass(obj):
        for f in fields(obj):
            yield from _numbers(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _numbers(item)
    elif not isinstance(obj, datetime):
        yield obj


def _non_floats(obj) -> list:
    return [v for v in _numbers(obj) if type(v) is not float]


@pytest.mark.parametrize("stations", [1, 2, 6])
def test_scenario_generators_return_python_floats(stations):
    # Each generator hands the scalar market Python floats, never numpy scalars.
    rng = np.random.default_rng(stations)
    price = synth_price_series(30, seed=stations)
    pv = synth_pv_series(30, stations, seed=stations)
    arrivals = synth_demand(DemandModel(), 30, stations, rng)
    episode = build_episode(price, pv, arrivals, 0.5, PARAMS)
    instance = random_tiny_instance(rng, stations, 3,
                                    ActionGrid(ev_fractions=(1.0,), cs_levels=2))
    for obj in (price, pv, arrivals, episode, instance.episode, instance.params):
        assert _non_floats(obj) == []
    assert max(max(row) for row in pv.generation) > 0.0      # daylight slots are covered


def test_synthetic_rollout_trace_holds_python_floats():
    # From the first sunny slot on, a numpy scalar in the PV series would
    # spread into the states, actions, trades and profits of the trace.
    cfg = load_config_dict({"scenario": {"mode": "synthetic", "station_count": 3}})
    price, pv, demand, stations = build_scenario(cfg)
    rng = np.random.default_rng(0)
    learner = build_learner("double_qmix", stations, cfg.ess, cfg.grid, cfg.scales, cfg.train,
                            rng)
    episode = build_episode(price, pv, synth_demand(demand, len(price), stations, rng),
                            cfg.scenario.initial_soc, cfg.ess)
    _, trace = rollout_episode(episode, learner, 0.3, rng, collect_trace=True)
    assert len(trace) == len(price)
    for t, log in enumerate(trace):
        assert _non_floats(log) == [], f"slot {t}"


# -0.0, the smallest subnormal, and values whose repr needs 17 significant digits.
EDGE_FLOATS = (-0.0, 5e-324, 0.30000000000000004, 1.0000000000000002, 1.7976931348623157e308)


def test_trace_csv_bytes_match_the_cell_by_cell_writer_on_edge_floats(tmp_path):
    # One slot per edge float; each of its two stations fills every float
    # column with that float and the next.  The price stands in for a quote:
    # a PriceQuote cannot hold -0.0.  At capacity 1 the soc column is the
    # battery column.
    params = EssParams(capacity_max=1.0)
    trace = []
    for t, v in enumerate(EDGE_FLOATS):
        a, b = v, EDGE_FLOATS[(t + 1) % len(EDGE_FLOATS)]
        pair = [a, b]
        trade = TradeOutcome(pair, pair, pair, pair)
        trace.append(SlotLog(
            states=(StationState(a, a, a), StationState(b, b, b)),
            actions=[StationAction(a, a), StationAction(b, b)],
            outcome=StepOutcome([], trade, pair, a, pair),
            quote=SimpleNamespace(utility=v), renewables=(a, b)))
    write_trace_csv(tmp_path / "new.csv", trace, params)
    _write_trace_one_cell_at_a_time(tmp_path / "old.csv", trace, params)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    rows = read_trace_csv(tmp_path / "new.csv")
    assert len(rows) == 2 * len(EDGE_FLOATS)
    for row in rows:
        t, i = row.pop("slot"), row.pop("station")
        want = EDGE_FLOATS[(t + i) % len(EDGE_FLOATS)]
        assert row.pop("xi_u").hex() == EDGE_FLOATS[t].hex()
        assert {k: v.hex() for k, v in row.items()} == dict.fromkeys(row, want.hex())


def test_checkpoint_stores_the_banks_under_their_parameter_names(tmp_path):
    # one entry per parameters(role) tensor, eval then target, with the bank's shape
    n, H, A = 3, 5, GRID.n_actions
    learner = build_learner("double_qmix", n, PARAMS, GRID, SCALES,
                            TrainConfig(episodes=1, batch_episodes=1, capacity=1,
                                        hidden_dim=H, embed_dim=4, hyper_hidden=6),
                            np.random.default_rng(0))
    S = n * OBS_DIM
    bank = [("agents.enc.W", (n, OBS_DIM, H)), ("agents.enc.b", (n, H)),
            ("agents.gru.W", (n, H, 3 * H)), ("agents.gru.U_zr", (n, H, 2 * H)),
            ("agents.gru.U_n", (n, H, H)), ("agents.gru.b", (n, 3 * H)),
            ("agents.head.W", (n, H, A)), ("agents.head.b", (n, A))]
    for layer, (d_in, d_out) in (("hyper_w1.l0", (S, 6)), ("hyper_w1.l1", (6, n * 4)),
                                 ("hyper_b1", (S, 4)), ("hyper_w2.l0", (S, 6)),
                                 ("hyper_w2.l1", (6, 4)), ("hyper_b2.l0", (S, 6)),
                                 ("hyper_b2.l1", (6, 1))):
        bank += [(f"mixers.{layer}.W", (2, d_in, d_out)), (f"mixers.{layer}.b", (2, d_out))]
    for role in ("eval", "target"):
        assert [(k, p.data.shape) for k, p in learner.parameters(role).items()] == bank
    want = [(f"param.{role}.{name}", s) for role in ("eval", "target") for name, s in bank]
    path = tmp_path / "learner.npz"
    save_learner(path, learner)
    with zipfile.ZipFile(path) as archive:
        order = [name[:-len(".npy")] for name in archive.namelist()]
    with np.load(path) as archive:
        got = [(name, archive[name].shape) for name in order if name.startswith("param.")]
        for role in ("eval", "target"):
            for k, p in learner.parameters(role).items():
                assert np.array_equal(archive[f"param.{role}.{k}"], p.data), k
    assert order[:2] == ["format_version", "meta_json"]
    assert got == want
    restored = load_learner(path)
    for role in ("eval", "target"):
        for k, p in restored.parameters(role).items():
            assert np.array_equal(p.data, learner.parameters(role)[k].data), k


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    learner = _learner("double_qmix", seed=4)
    train_step(_batch(learner, n=2), learner)  # eval and target banks now differ
    first, second = tmp_path / "first.npz", tmp_path / "second.npz"
    save_learner(first, learner)
    save_learner(second, load_learner(first))
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_round_trips_each_mixer_slice(tmp_path):
    learner = _learner("double_qmix", seed=4)
    train_step(_batch(learner, n=2), learner)  # now unlike a fresh build, which loading starts from
    path = tmp_path / "learner.npz"
    save_learner(path, learner)
    with np.load(path) as archive:
        for role in ("eval", "target"):
            for name, p in getattr(learner, f"mixers_{role}").parameters().items():
                assert np.array_equal(archive[f"param.{role}.mixers.{name}"], p.data)
    restored = load_learner(path)
    for role in ("eval", "target"):
        for k, p in restored.parameters(role).items():
            assert np.array_equal(p.data, learner.parameters(role)[k].data), k


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_only_eval_parameters_require_grad(tmp_path, algorithm):
    # Target nets are constants between syncs, so their forwards tape nothing.
    learner = _learner(algorithm)
    path = tmp_path / "learner.npz"
    save_learner(path, learner)
    for built in (learner, load_learner(path)):
        assert all(p.requires_grad for p in built.parameters("eval").values())
        assert not any(p.requires_grad for p in built.parameters("target").values())


def test_checkpoint_missing_gate_entry_is_named(tmp_path):
    path = tmp_path / "learner.npz"
    save_learner(path, _learner("double_qmix"))
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    del arrays["param.eval.agents.gru.b"]
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match=r"missing \['eval\.agents\.gru\.b'\]"):
        load_learner(path)


def test_checkpoint_storing_the_removed_debug_checks_option_is_refused(tmp_path):
    # TrainConfig has no such field since the option was removed
    path = tmp_path / "learner.npz"
    save_learner(path, _learner("double_qmix"))
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(str(arrays["meta_json"]))
    meta["train_config"]["debug_checks"] = True
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match="unusable learner metadata: .*debug_checks"):
        load_learner(path)


def test_train_step_unrolls_eval_agents_once_and_mixes_in_one_pass(monkeypatch):
    learner = _learner("double_qmix")
    batch = _batch(learner, n=2)
    calls = {}
    for cls, name in ((GRUCell, "sequence"), (GRUCell, "step"), (MonotonicMixer, "forward")):
        def counted(*args, _method=getattr(cls, name), _key=f"{cls.__name__}.{name}"):
            calls[_key] += 1
            return _method(*args)

        calls[f"{cls.__name__}.{name}"] = 0
        monkeypatch.setattr(cls, name, counted)
    train_step(batch, learner)
    # one taped eval unroll and one untaped target unroll, each one fused
    # sequence for the whole agent bank; one untaped target mixer bank for
    # the bootstrap and one taped eval mixer bank for the loss
    assert calls == {"GRUCell.sequence": 2, "GRUCell.step": 0, "MonotonicMixer.forward": 2}
    # the same episodes again, before a sync: their target values are held,
    # so only the eval agents unroll; the target mixers still run, since the
    # eval agents, which moved, pick their inputs
    calls.update(dict.fromkeys(calls, 0))
    train_step(batch, learner)
    assert calls == {"GRUCell.sequence": 1, "GRUCell.step": 0, "MonotonicMixer.forward": 2}


def test_train_step_tape_stays_small(monkeypatch):
    nodes = 0
    result = Tensor.__dict__["_result"].__func__

    def counted(data, parents, backward_fn):
        nonlocal nodes
        out = result(data, parents, backward_fn)
        nodes += out.requires_grad
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
    per_step = {}
    for algorithm, mode in (("double_qmix", "direct"), ("qmix", "direct"),
                            ("double_qmix", "mixer_grad")):
        learner = build_learner(algorithm, 2, PARAMS, GRID, SCALES,
                                TrainConfig(agent_loss_mode=mode), np.random.default_rng(0))
        batch = [rollout_episode(_tiny_episode(T=48, seed=k), learner, 1.0,
                                 np.random.default_rng(k))[0]
                 for k in range(learner.config.batch_episodes)]
        nodes = 0
        train_step(batch, learner)
        per_step[algorithm, mode] = nodes
    # one node per layer, not per slot or per layer op, and one per mixer bank:
    # the tape size grows with neither T nor the number of mixers
    assert per_step == {("double_qmix", "direct"): 16, ("qmix", "direct"): 16,
                        ("double_qmix", "mixer_grad"): 11}, per_step


def test_train_loop_end_to_end_and_metrics():
    learner = _learner("double_qmix", seed=3)
    buf = ReplayBuffer(16, np.random.default_rng(1))
    seq = iter(range(100))

    def factory():
        return _tiny_episode(seed=next(seq))

    metrics = train(learner, buf, factory, np.random.default_rng(2))
    assert len(metrics) == 10
    for k, m in enumerate(metrics):
        assert m.episode == k + 1
        assert m.epsilon == pytest.approx(epsilon_at(learner.config, k))
        assert np.isfinite(m.total_profit)
    # Training begins once the buffer holds a full batch.
    assert metrics[0].l_mix is None or len(buf) >= learner.config.batch_episodes
    assert metrics[-1].l_mix is not None
    assert learner.debug_violations == 0


def test_random_baseline_never_learns():
    learner = _learner("random", seed=3)
    buf = ReplayBuffer(16, np.random.default_rng(1))
    metrics = train(learner, buf, lambda: _tiny_episode(seed=0), np.random.default_rng(2))
    assert all(m.l_mix is None for m in metrics)
    assert all(m.agent_loss_mean is None for m in metrics)
    assert all(m.epsilon == 1.0 for m in metrics)


def test_checkpoint_roundtrip_preserves_policy(tmp_path):
    learner = _learner("double_qmix", seed=5)
    buf = ReplayBuffer(16, np.random.default_rng(1))
    seq = iter(range(100))
    train(learner, buf, lambda: _tiny_episode(seed=next(seq)), np.random.default_rng(2))
    probe = _tiny_episode(seed=77)
    before, _ = rollout_episode(probe, learner, 0.0, None)
    path = tmp_path / "learner.npz"
    save_learner(path, learner)
    restored = load_learner(path)
    assert restored.algorithm == "double_qmix"
    after, _ = rollout_episode(probe, restored, 0.0, None)
    assert after.total_profits.sum() == before.total_profits.sum()
