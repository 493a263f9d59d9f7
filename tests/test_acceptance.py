"""Package acceptance gate.

Ten checks, each printing one PASS line with its measured numbers (visible
under ``pytest -s`` or on failure).  Tolerances and workloads are pinned;
the learning-trend check trains fifteen full runs and dominates the
runtime of this file.
"""

import statistics
import time
from collections import Counter

import numpy as np
import pytest

from evcoop.cli import main
from evcoop.config import build_scenario, load_config_dict
from evcoop.core import PriceQuote, clear_trades, profit, run_episode
from evcoop.data import build_episode, synth_demand
from evcoop.fuzz import fuzz_battery, fuzz_clearing, fuzz_profit
from evcoop.marl import (
    ObsScales,
    ReplayBuffer,
    TrainConfig,
    build_learner,
    rollout_episode,
    train,
)
from evcoop.nn import Tensor
from evcoop.oracle import brute_force, random_tiny_instance, rolling_greedy
from gradcheck import check_gradients
from mixer_reference import tape_matmul, tape_tanh


def _passline(name, detail):
    print(f"PASS {name}: {detail}")


def test_clearing_conservation_bulk():
    report = fuzz_clearing(100_000, seed=0)
    assert report.violations == 0, report.notes
    assert report.elapsed_s < 10.0, f"took {report.elapsed_s:.1f}s"
    _passline("clearing conservation",
              f"{report.calls} calls, 0 violations, {report.elapsed_s:.2f}s")


def test_battery_safety_bulk():
    report = fuzz_battery(100_000, seed=1)
    assert report.violations == 0, report.notes
    assert report.elapsed_s < 10.0, f"took {report.elapsed_s:.1f}s"
    _passline("battery safety",
              f"{report.calls} masked steps, 0 violations, {report.elapsed_s:.2f}s")


def test_profit_identities_bulk():
    report = fuzz_profit(10_000, seed=2)
    assert report.violations == 0, report.notes
    _passline("profit identities",
              f"{report.calls} slots, 0 violations incl. trade-price invariance, "
              f"{report.elapsed_s:.2f}s")


def test_gradient_fidelity_twenty_inits():
    t0 = time.perf_counter()
    worst, worst_init = None, None
    scales = ObsScales()
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        cfg = TrainConfig(episodes=1, hidden_dim=12, embed_dim=6, hyper_hidden=10,
                          batch_episodes=1, capacity=2)
        base = load_config_dict({})
        learner = build_learner("double_qmix", 2, base.ess, base.grid, scales, cfg, rng)
        obs = rng.standard_normal((3, 6))
        state = rng.standard_normal((3, 12))
        target = rng.standard_normal(3)

        # both agents see the same observations, fed back once through their Q-values
        obs_both = Tensor(np.stack([obs, obs]))
        feedback = Tensor(np.stack([np.eye(learner.grid.n_actions, 6)] * 2))
        picks = np.array([[0, 3, 7]] * 2)

        def loss_fn():
            agents = learner.agents_eval
            h = agents.gru.sequence(agents.encoder(obs_both), 3, 1)
            q = agents.head(h)
            fed_back = agents.encoder(tape_matmul(tape_tanh(q), feedback))
            q = agents.head(agents.gru.sequence(fed_back, 3, 1, h0=h))
            cols = q.gather(picks).transpose()
            diff = learner.mixers_eval.forward(state, cols) - Tensor(target)  # mixers A and B
            return (diff * diff).sum()

        # 12 entries per parameter of each station's agent and of each mixer; a packed
        # GRU parameter counts once per gate block it holds (W_z, U_z, b_z, ..., b_n)
        params = learner.parameters("eval")
        blocks = Counter(id(p) for p, _ in learner.agents_eval.gru.gate_columns().values())
        agent_reports = [check_gradients(loss_fn, {k: p}, sample=12 * 2 * max(1, blocks[id(p)]),
                                         rng=rng)
                         for k, p in params.items() if k.startswith("agents.")]
        mixer_report = check_gradients(loss_fn, {k: p for k, p in params.items()
                                                 if k.startswith("mixer")}, sample=12 * 2, rng=rng)
        reports = [*agent_reports, mixer_report]
        assert [sum(r.n_checked for r in agent_reports), mixer_report.n_checked] == [312, 274]
        for report in reports:
            if worst is None or report.max_rel_error > worst.max_rel_error:
                worst, worst_init = report, k
            assert report.ok(1e-4), (
                f"init {k}: max rel error {report.max_rel_error:.3e} at {report.worst_param} "
                f"entry {report.worst_index}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passline("gradient fidelity",
              f"20 parameterizations, worst rel error {worst.max_rel_error:.3e} <= 1e-4 at "
              f"init {worst_init}, {worst.worst_param} entry {worst.worst_index} "
              f"(analytic {worst.worst_analytic:.9e}, finite difference {worst.worst_fd:.9e}), "
              f"{elapsed:.1f}s")


def test_mixer_monotonicity_probes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    base = load_config_dict({})
    cfg = TrainConfig(episodes=1, batch_episodes=1, capacity=2)
    learner = build_learner("double_qmix", 3, base.ess, base.grid, ObsScales(), cfg,
                            np.random.default_rng(7))
    delta = 1e-3
    checked = 0
    for _ in range(1000):
        state = rng.standard_normal((1, 18))
        qs = rng.standard_normal((1, 3))
        agent = int(rng.integers(3))
        bumped = qs.copy()
        bumped[0, agent] += delta
        # mixers A and B, one row each
        lo = learner.mixers_eval.forward(state, Tensor(qs)).data[:, 0]
        hi = learner.mixers_eval.forward(state, Tensor(bumped)).data[:, 0]
        assert np.all(hi >= lo - 1e-9), f"monotonicity broken: {hi} < {lo}"
        checked += len(lo)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _passline("mixer monotonicity", f"{checked} probes across both mixers, {elapsed:.2f}s")


def test_pessimistic_target_bound_debug_run():
    cfg = load_config_dict({
        "scenario": {"mode": "synthetic", "station_count": 2, "horizon": 12},
        "train": {"episodes": 50, "batch_episodes": 4, "capacity": 64},
    })
    price, pv, demand, stations = build_scenario(cfg)
    learner = build_learner("double_qmix", stations, cfg.ess, cfg.grid, cfg.scales,
                            cfg.train, np.random.default_rng(0))
    buffer = ReplayBuffer(cfg.train.capacity, np.random.default_rng(1))
    demand_rng = np.random.default_rng(2)

    def factory():
        arrivals = synth_demand(demand, 12, stations, rng=demand_rng)
        return build_episode(price, pv, arrivals, cfg.scenario.initial_soc, cfg.ess)

    train(learner, buffer, factory, np.random.default_rng(3))
    assert learner.train_steps > 0
    assert learner.debug_violations == 0
    _passline("pessimistic target bound",
              f"50-episode debug run, {learner.train_steps} batches, 0 violations")


def test_enumerated_optimum_dominates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    base = load_config_dict({})
    greedy_worst = 0.0
    policies_checked = 0
    for k in range(100):
        inst = random_tiny_instance(rng)
        exact = brute_force(inst)
        tol = 1e-9 * max(1.0, abs(exact.profit))

        full, _ = rolling_greedy(inst, inst.episode.length)
        greedy_worst = max(greedy_worst, abs(full - exact.profit))
        assert abs(full - exact.profit) <= tol, f"instance {k}: {full} vs {exact.profit}"

        myopic, _ = rolling_greedy(inst, 1)
        assert myopic <= exact.profit + tol

        cfg = TrainConfig(episodes=1, hidden_dim=8, embed_dim=4, hyper_hidden=8,
                          batch_episodes=1, capacity=2)
        learner = build_learner("double_qmix", inst.episode.station_count,
                                inst.params, inst.grid, ObsScales(), cfg,
                                np.random.default_rng(k))
        record, _ = rollout_episode(inst.episode, learner, 0.0, None)
        assert record.total_profits.sum() <= exact.profit + tol

        def random_policy(t, states, masks):
            # each station's draw among its own feasible actions at this slot
            return [int(rng.choice(np.flatnonzero(row))) for row in masks]

        for r in range(3):
            _, _, totals, _, _ = run_episode(inst.episode, inst.params, inst.grid, random_policy)
            assert sum(totals) <= exact.profit + tol
        policies_checked += 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _passline("enumerated optimum dominance",
              f"100 instances x {policies_checked // 100} policies, 0 violations, "
              f"greedy(L=T) gap <= {greedy_worst:.1e}, {elapsed:.1f}s")


def test_hand_worked_clearing_case():
    out = clear_trades([10.0, 30.0, -20.0])
    assert out.matched_sell[2] == 20.0
    assert out.matched_buy == [5.0, 15.0, 0.0]
    assert out.utility_buy == [5.0, 15.0, 0.0]
    assert out.utility_sell == [0.0, 0.0, 0.0]
    quote = PriceQuote(utility=0.10, ev=0.12, trade=0.09, buyback=0.08)
    assert sum(profit([0.0, 0.0, 0.0], out, quote)) == pytest.approx(-2.0, abs=1e-12)
    _passline("hand-worked clearing case",
              "controls [+10,+30,-20] -> matched [5,15,|-20|], residual [5,15,0]")


def _final_window_mean(metrics, window=50):
    tail = metrics[-window:]
    return sum(m.total_profit for m in tail) / len(tail)


def test_learning_trend_beats_baselines():
    cfg = load_config_dict({"seeds": [0, 1, 2, 3, 4]})
    price, pv, demand, stations = build_scenario(cfg)
    T = len(price)
    medians = {}
    timings = {}
    for algorithm in ("double_qmix", "qmix", "random"):
        t0 = time.perf_counter()
        finals = []
        for seed in cfg.seeds:
            ss = np.random.SeedSequence([seed]).spawn(4)
            rng_init, rng_demand, rng_roll, rng_replay = (
                np.random.default_rng(c) for c in ss)
            learner = build_learner(algorithm, stations, cfg.ess, cfg.grid,
                                    cfg.scales, cfg.train, rng_init)
            buffer = ReplayBuffer(cfg.train.capacity, rng_replay)

            def factory():
                arrivals = synth_demand(demand, T, stations, rng=rng_demand)
                return build_episode(price, pv, arrivals,
                                     cfg.scenario.initial_soc, cfg.ess)

            metrics = train(learner, buffer, factory, rng_roll)
            finals.append(_final_window_mean(metrics))
        medians[algorithm] = statistics.median(finals)
        timings[algorithm] = time.perf_counter() - t0
    double, base, rand = medians["double_qmix"], medians["qmix"], medians["random"]
    assert rand > 0, f"random baseline must stay profitable, got {rand:.2f}"
    assert double >= 1.5 * rand, (
        f"double_qmix median {double:.2f} < 1.5x random {rand:.2f}")
    assert double >= 0.95 * base, (
        f"double_qmix median {double:.2f} < 0.95x qmix {base:.2f}")
    assert max(timings.values()) < 900.0
    _passline("learning trend",
              f"medians over 5 seeds: double_qmix {double:.2f}, qmix {base:.2f}, "
              f"random {rand:.2f} (ratios {double / rand:.2f}x, {double / base:.2f}x); "
              f"slowest algorithm {max(timings.values()):.0f}s")


def test_byte_identical_reruns(tmp_path):
    import json
    cfg = {"train": {"episodes": 20, "batch_episodes": 4, "capacity": 64},
           "algorithms": ["double_qmix"], "seeds": [0]}
    paths = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"cfg_{tag}.json"
        cfg["out_dir"] = str(tmp_path / tag)
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate",
                     "--checkpoint", str(tmp_path / tag / "double_qmix_seed0" / "checkpoint.npz"),
                     "--seed", "0", "--out", str(tmp_path / tag)]) == 0
        paths.append(tmp_path / tag)
    metrics_a = (paths[0] / "double_qmix_seed0" / "metrics.csv").read_bytes()
    metrics_b = (paths[1] / "double_qmix_seed0" / "metrics.csv").read_bytes()
    assert metrics_a == metrics_b
    trace_a = (paths[0] / "trace.csv").read_bytes()
    trace_b = (paths[1] / "trace.csv").read_bytes()
    assert trace_a == trace_b
    _passline("byte-identical reruns",
              f"metrics.csv ({len(metrics_a)} bytes) and trace.csv "
              f"({len(trace_a)} bytes) identical across reruns")
