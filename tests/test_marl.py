"""Learning engine: encoding, action grid, replay, targets, training loop."""

import numpy as np
import pytest

from evcoop.core import EssParams, StationState
from evcoop.data import DemandModel, build_episode, synth_demand, synth_price_series, synth_pv_series
from evcoop.marl import (
    ActionGrid,
    EpisodeRecord,
    InfeasibleActionError,
    OBS_DIM,
    ObsScales,
    ReplayBuffer,
    TrainConfig,
    act_epsilon_greedy,
    build_learner,
    compute_targets,
    encode_observation,
    epsilon_at,
    global_state,
    greedy_profit,
    load_learner,
    rollout_episode,
    save_learner,
    sync_targets,
    train,
    train_step,
)

PARAMS = EssParams()
SCALES = ObsScales()
GRID = ActionGrid()


def _tiny_episode(T=4, seed=0, stations=2):
    price = synth_price_series(T, seed=seed)
    pv = synth_pv_series(T, stations, seed=seed)
    model = DemandModel(profiles=((12.0,) * 24, (8.0,) * 24), noise_sigma=1.0, rng_seed=seed)
    arrivals = synth_demand(model, T, stations)
    return build_episode(price, pv, arrivals, 0.5, PARAMS)


def _learner(algorithm="double_qmix", seed=0, **overrides):
    cfg = TrainConfig(episodes=10, batch_episodes=2, capacity=16, **overrides)
    return build_learner(algorithm, 2, PARAMS, GRID, SCALES, cfg,
                         np.random.default_rng(seed))


def test_observation_encoding_hand_values():
    states = (StationState(100.0, 5.0, 15.0), StationState(60.0, 2.0, 3.0))
    obs = encode_observation(states, 0, renewable=10.0, price_utility=0.2,
                             params=PARAMS, scales=SCALES)
    assert obs == pytest.approx([25.0 / 100.0, 0.5, 5.0 / 25.0, 15.0 / 50.0,
                                 10.0 / 50.0, 0.2 / 0.1])
    assert obs.shape == (OBS_DIM,)
    stacked = np.stack([obs, obs])
    assert global_state(stacked).shape == (2 * OBS_DIM,)


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
    action = grid.decode(0, state, 0.0, PARAMS)
    assert action.ev_supply == pytest.approx(4.0)


def test_action_grid_blocks_infeasible_fraction():
    tight = EssParams(capacity_max=100.0, import_cap=5.0)
    state = StationState(10.0, 1000.0, 0.0)
    with pytest.raises(InfeasibleActionError):
        ActionGrid().decode_table(state, 0.0, tight)


def test_epsilon_schedule_endpoints():
    cfg = TrainConfig(episodes=300)
    assert epsilon_at(cfg, 0) == pytest.approx(1.0)
    assert epsilon_at(cfg, 75) == pytest.approx(1.0 + 0.5 * (0.05 - 1.0))
    assert epsilon_at(cfg, 150) == pytest.approx(0.05)
    assert epsilon_at(cfg, 299) == pytest.approx(0.05)


def test_exploration_respects_mask_and_uniformity():
    learner = _learner()
    agent = learner.agents_eval[0]
    mask = np.zeros(GRID.n_actions, dtype=bool)
    feasible = [1, 4, 7, 10, 13]
    mask[feasible] = True
    obs = np.zeros(OBS_DIM)
    rng = np.random.default_rng(0)
    counts = {a: 0 for a in feasible}
    h = agent.init_hidden(1)
    for _ in range(3000):
        a, _ = act_epsilon_greedy(agent, obs, h, epsilon=1.0, mask=mask, rng=rng)
        counts[a] += 1
    assert sum(counts.values()) == 3000
    expect = 3000 / len(feasible)
    for a in feasible:
        assert abs(counts[a] - expect) < 5 * np.sqrt(3000 * 0.2 * 0.8)
    # Greedy needs no randomness source at all.
    a, _ = act_epsilon_greedy(agent, obs, h, epsilon=0.0, mask=mask, rng=None)
    assert a in feasible
    with pytest.raises(ValueError):
        act_epsilon_greedy(agent, obs, h, epsilon=0.5, mask=mask, rng=None)


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
        EpisodeRecord(obs=rec.obs, state=rec.state, actions=rec.actions,
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


def test_double_targets_take_pessimistic_mixture():
    learner = _learner("double_qmix")
    batch = _batch(learner)
    rewards = np.stack([r.rewards for r in batch])
    t = compute_targets(batch, learner)
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
    t = compute_targets(batch, learner)
    assert t.mix_b is None
    assert t.y[:, :-1] == pytest.approx(rewards[:, :-1] + learner.config.gamma * t.mix_a[:, :-1])


def test_independent_targets_per_agent():
    learner = _learner("independent_dqn")
    batch = _batch(learner)
    t = compute_targets(batch, learner)
    assert t.y.shape == (3, 4, 2)
    assert t.mix_a is None


def test_sync_copies_eval_into_target():
    learner = _learner("double_qmix")
    for p in learner.eval_parameters().values():
        p.data += 0.1
    sync_targets(learner)
    eval_params = learner.eval_parameters()
    for name, tgt in learner.target_parameters().items():
        assert np.array_equal(tgt.data, eval_params[name].data)
        assert tgt.data is not eval_params[name].data


def test_rollout_deterministic_given_seed():
    learner = _learner()
    ep = _tiny_episode()
    rec1, _ = rollout_episode(ep, learner, 0.7, np.random.default_rng(9))
    rec2, _ = rollout_episode(ep, learner, 0.7, np.random.default_rng(9))
    assert np.array_equal(rec1.actions, rec2.actions)
    assert rec1.rewards == pytest.approx(rec2.rewards)


@pytest.mark.parametrize("algorithm, mode", [
    pytest.param("double_qmix", "direct", id="double_qmix"),
    pytest.param("qmix", "direct", id="qmix"),
    pytest.param("independent_dqn", "direct", id="independent_dqn"),
    pytest.param("double_qmix", "mixer_grad", id="double_qmix-mixer_grad"),
    pytest.param("qmix", "mixer_grad", id="qmix-mixer_grad"),
])
def test_train_step_reduces_loss_on_fixed_batch(algorithm, mode):
    learner = _learner(algorithm, agent_loss_mode=mode)
    batch = _batch(learner, n=2)
    agent_params = {k: p for k, p in learner.eval_parameters().items() if k.startswith("agent")}
    before = {k: p.data.copy() for k, p in agent_params.items()}
    losses = []
    for _ in range(40):
        l_mix, agent_losses = train_step(batch, learner)
        losses.append(l_mix if l_mix is not None else float(np.mean(agent_losses)))
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]
    # In either mode every agent parameter learns: from its own regression
    # or from the gradient that flows back through the mixer.
    for k, p in agent_params.items():
        assert not np.array_equal(p.data, before[k]), k


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
    before = greedy_profit(probe, learner)
    path = tmp_path / "learner.npz"
    save_learner(path, learner)
    restored = load_learner(path)
    assert restored.algorithm == "double_qmix"
    assert greedy_profit(probe, restored) == before
