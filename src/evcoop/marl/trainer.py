"""Recurrent Q-agents, double-mixer training, and the baseline algorithms.

The learner holds per-station DRQN agents plus, depending on the algorithm,
one or two monotone mixers with eval/target copies.  Training follows the
recurrent pattern throughout: whole episodes are replayed and hidden states
re-unrolled from zero, one gradient step per training episode.

``double_qmix`` bootstraps with the elementwise minimum of the two target
mixers, evaluated at next-slot actions picked by the *eval* agents, which
curbs the optimistic bias a single maximizing mixer accrues.  ``qmix`` is
the single-mixer baseline with target-net action selection.
``independent_dqn`` trains each agent on the shared reward with no mixer.
``random`` never trains.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from ..core import EssParams, PriceQuote, StationAction, StationState, StepOutcome, step as env_step
from ..data import Episode
from ..nn import Adam, Dense, DivergenceError, GRUCell, MonotonicMixer, Tensor, no_grad, stack_cols
from ..nn.checkpoint import CheckpointError, read_checkpoint, restore_params, save_checkpoint
from .encoding import OBS_DIM, ActionGrid, ObsScales, encode_observation, global_state
from .replay import EpisodeRecord, ReplayBuffer

ALGORITHMS = ("double_qmix", "qmix", "independent_dqn", "random")


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 300
    gamma: float = 0.99
    lr_agent: float = 0.001
    lr_mixer: float = 0.0005
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_frac: float = 0.5
    target_period: int = 10
    batch_episodes: int = 8
    capacity: int = 256
    reward_scale: float = 1e-3
    agent_loss_mode: str = "direct"
    hidden_dim: int = 64
    embed_dim: int = 32
    hyper_hidden: int = 64
    debug_checks: bool = False

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.lr_agent <= 0 or self.lr_mixer <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_decay_frac <= 1.0:
            raise ValueError("epsilon_decay_frac must lie in (0, 1]")
        if self.target_period < 1:
            raise ValueError("target_period must be >= 1")
        if self.batch_episodes < 1:
            raise ValueError("batch_episodes must be >= 1")
        if self.capacity < self.batch_episodes:
            raise ValueError("capacity must hold at least one batch")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.reward_scale <= 0:
            raise ValueError("reward_scale must be positive")
        if self.agent_loss_mode not in ("direct", "mixer_grad"):
            raise ValueError("agent_loss_mode must be 'direct' or 'mixer_grad'")
        for name in ("hidden_dim", "embed_dim", "hyper_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def epsilon_at(config: TrainConfig, episode_index: int) -> float:
    """Linear schedule over the first ``epsilon_decay_frac`` of episodes (0-based index)."""
    span = max(1, int(round(config.episodes * config.epsilon_decay_frac)))
    frac = min(1.0, episode_index / span)
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac


class DRQNAgent:
    """Observation encoder -> gated recurrent cell -> Q-value head."""

    def __init__(self, obs_dim: int, n_actions: int, hidden_dim: int,
                 rng: np.random.Generator):
        self.n_actions = n_actions
        self.encoder = Dense(obs_dim, hidden_dim, "relu", rng)
        self.gru = GRUCell(hidden_dim, hidden_dim, rng)
        self.head = Dense(hidden_dim, n_actions, "none", rng)

    def init_hidden(self, batch: int) -> Tensor:
        return self.gru.init_hidden(batch)

    def step(self, obs: Tensor, hidden: Tensor) -> tuple[Tensor, Tensor]:
        """One recurrent step: (B, obs_dim) x (B, H) -> Q (B, A), new hidden."""
        h = self.gru.step(self.encoder(obs), hidden)
        return self.head(h), h

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {}
        out.update(self.encoder.parameters(f"{prefix}enc."))
        out.update(self.gru.parameters(f"{prefix}gru."))
        out.update(self.head.parameters(f"{prefix}head."))
        return out


@dataclass
class LearnerState:
    algorithm: str
    config: TrainConfig
    env_params: EssParams
    grid: ActionGrid
    scales: ObsScales
    n_agents: int
    agents_eval: list[DRQNAgent]
    agents_target: list[DRQNAgent]
    mixer_a_eval: MonotonicMixer | None
    mixer_b_eval: MonotonicMixer | None
    mixer_a_target: MonotonicMixer | None
    mixer_b_target: MonotonicMixer | None
    opt_agents: Adam | None
    opt_mixers: Adam | None
    train_steps: int = 0
    episodes_done: int = 0
    debug_violations: int = 0

    def parameters(self, role: str) -> dict[str, Tensor]:
        """Every ``role`` ("eval" or "target") parameter under its checkpoint name."""
        out: dict[str, Tensor] = {}
        for i, agent in enumerate(getattr(self, f"agents_{role}")):
            out.update(agent.parameters(f"agent{i}."))
        for mixer in ("mixer_a", "mixer_b"):
            net = getattr(self, f"{mixer}_{role}")
            if net is not None:
                out.update(net.parameters(f"{mixer}."))
        return out

    def eval_parameters(self) -> dict[str, Tensor]:
        return self.parameters("eval")

    def target_parameters(self) -> dict[str, Tensor]:
        return self.parameters("target")


def build_learner(algorithm: str, n_agents: int, env_params: EssParams,
                  grid: ActionGrid, scales: ObsScales, config: TrainConfig,
                  rng: np.random.Generator) -> LearnerState:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if n_agents < 1:
        raise ValueError("need at least one station")
    n_actions = grid.n_actions
    state_dim = n_agents * OBS_DIM

    def make_agents():
        return [DRQNAgent(OBS_DIM, n_actions, config.hidden_dim, rng) for _ in range(n_agents)]

    def make_mixer():
        return MonotonicMixer(state_dim, n_agents, config.embed_dim, config.hyper_hidden, rng)

    agents_eval = make_agents()
    agents_target = make_agents()
    mixer_a_eval = mixer_b_eval = mixer_a_target = mixer_b_target = None
    if algorithm in ("double_qmix", "qmix"):
        mixer_a_eval, mixer_a_target = make_mixer(), make_mixer()
    if algorithm == "double_qmix":
        mixer_b_eval, mixer_b_target = make_mixer(), make_mixer()

    learner = LearnerState(
        algorithm=algorithm, config=config, env_params=env_params, grid=grid,
        scales=scales, n_agents=n_agents,
        agents_eval=agents_eval, agents_target=agents_target,
        mixer_a_eval=mixer_a_eval, mixer_b_eval=mixer_b_eval,
        mixer_a_target=mixer_a_target, mixer_b_target=mixer_b_target,
        opt_agents=None, opt_mixers=None,
    )
    if algorithm != "random":
        params = learner.parameters("eval")
        learner.opt_agents = Adam({k: p for k, p in params.items() if k.startswith("agent")},
                                  lr=config.lr_agent)
        mixer_params = {k: p for k, p in params.items() if k.startswith("mixer")}
        if mixer_params:
            learner.opt_mixers = Adam(mixer_params, lr=config.lr_mixer)
    sync_targets(learner)
    return learner


def sync_targets(learner: LearnerState) -> None:
    """Copy every eval parameter into its target twin, exactly."""
    eval_params = learner.parameters("eval")
    for name, target in learner.parameters("target").items():
        target.data = eval_params[name].data.copy()


def _masked_argmax(q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Argmax along the last axis with infeasible entries suppressed; ties go low."""
    neg = np.where(mask, q, -np.inf)
    return np.argmax(neg, axis=-1)


def act_epsilon_greedy(agent: DRQNAgent, obs: np.ndarray, hidden: Tensor,
                       epsilon: float, mask: np.ndarray,
                       rng: np.random.Generator | None) -> tuple[int, Tensor]:
    """One action for one station; the hidden state advances either way."""
    feasible = np.flatnonzero(mask)
    if feasible.size == 0:
        raise ValueError("empty feasibility mask")
    with no_grad():
        q, new_hidden = agent.step(Tensor(obs.reshape(1, -1)), hidden)
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an rng")
        if rng.random() < epsilon:
            return int(feasible[rng.integers(feasible.size)]), new_hidden
    return int(_masked_argmax(q.data[0], mask)), new_hidden


@dataclass
class SlotLog:
    """Everything observed at one slot of a rollout, for trace emission."""

    states: tuple[StationState, ...]
    actions: list[StationAction]
    outcome: StepOutcome
    quote: PriceQuote
    renewables: tuple[float, ...]


def rollout_episode(episode: Episode, learner: LearnerState, epsilon: float,
                    rng: np.random.Generator | None,
                    collect_trace: bool = False
                    ) -> tuple[EpisodeRecord, list[SlotLog] | None]:
    """Run one episode through the environment under the current policy."""
    T = episode.length
    n = episode.station_count
    if n != learner.n_agents:
        raise ValueError(f"episode has {n} stations, learner expects {learner.n_agents}")
    params = learner.env_params
    grid = learner.grid
    A = grid.n_actions

    obs_log = np.zeros((T, n, OBS_DIM))
    state_log = np.zeros((T, n * OBS_DIM))
    action_log = np.zeros((T, n), dtype=np.int64)
    mask_log = np.zeros((T, n, A), dtype=bool)
    reward_log = np.zeros(T)
    total_log = np.zeros(T)
    station_log = np.zeros((T, n))
    trace: list[SlotLog] | None = [] if collect_trace else None

    states = episode.initial_states
    hiddens = [agent.init_hidden(1) for agent in learner.agents_eval]
    for t in range(T):
        quote = episode.quotes[t]
        renew = episode.renewables[t]
        obs_block = np.stack([
            encode_observation(states, i, renew[i], quote.utility, params, learner.scales)
            for i in range(n)
        ])
        obs_log[t] = obs_block
        state_log[t] = global_state(obs_block)

        actions: list[StationAction] = []
        for i in range(n):
            supplies, controls, mask = grid.decode_table(states[i], renew[i], params)
            mask_log[t, i] = mask
            idx, hiddens[i] = act_epsilon_greedy(
                learner.agents_eval[i], obs_block[i], hiddens[i], epsilon, mask, rng)
            action_log[t, i] = idx
            actions.append(StationAction(ev_supply=supplies[idx], ess_control=controls[idx]))

        outcome = env_step(list(states), actions, list(renew), quote,
                           list(episode.arrivals[t]), params)
        total_log[t] = outcome.profit.total_profit
        station_log[t] = outcome.profit.station_profit
        reward_log[t] = outcome.profit.total_profit * learner.config.reward_scale
        if trace is not None:
            trace.append(SlotLog(states, actions, outcome, quote, renew))
        states = tuple(outcome.next_states)

    record = EpisodeRecord(obs=obs_log, state=state_log, actions=action_log,
                           masks=mask_log, rewards=reward_log,
                           total_profits=total_log, station_profits=station_log)
    return record, trace


def _stack_batch(batch: Sequence[EpisodeRecord]):
    T = batch[0].length
    if any(r.length != T for r in batch):
        raise ValueError("episodes in one batch must share a length")
    return tuple(np.stack([getattr(r, name) for r in batch])
                 for name in ("obs", "state", "actions", "masks", "rewards"))


def _unroll_numpy(agents: list[DRQNAgent], obs: np.ndarray) -> np.ndarray:
    """Graph-free Q-values for every slot: (B, T, I, 6) -> (B, T, I, A)."""
    B, T, n, _ = obs.shape
    out = np.zeros((B, T, n, agents[0].n_actions))
    with no_grad():
        for i, agent in enumerate(agents):
            h = agent.init_hidden(B)
            for t in range(T):
                q, h = agent.step(Tensor(obs[:, t, i, :]), h)
                out[:, t, i, :] = q.data
    return out


def _mixer_apply(mixer: MonotonicMixer, states: np.ndarray, qs: np.ndarray) -> np.ndarray:
    with no_grad():
        return mixer.forward(Tensor(states), Tensor(qs)).data


@dataclass
class Targets:
    """Bootstrapped regression targets for one batch.

    ``y`` is (B, T) for mixer algorithms and (B, T, I) for independent
    learners.  ``mix_a``/``mix_b`` hold the raw target-mixer values used in
    the bootstrap, NaN at the terminal slot.
    """

    y: np.ndarray
    mix_a: np.ndarray | None = None
    mix_b: np.ndarray | None = None


def compute_targets(batch: Sequence[EpisodeRecord], learner: LearnerState) -> Targets:
    """Line-by-line bootstrap: next actions, target values, reward plus discounted tail."""
    obs, states, _, masks, rewards = _stack_batch(batch)
    B, T, n, _ = obs.shape
    gamma = learner.config.gamma

    q_target = _unroll_numpy(learner.agents_target, obs)

    if learner.algorithm == "independent_dqn":
        y = np.repeat(rewards[:, :, None], n, axis=2)
        best_next = np.max(np.where(masks, q_target, -np.inf), axis=-1)  # (B,T,I)
        y[:, :-1, :] += gamma * best_next[:, 1:, :]
        return Targets(y=y)

    if learner.algorithm == "double_qmix":
        # next-slot actions come from the eval agents (decoupled selection)
        q_eval = _unroll_numpy(learner.agents_eval, obs)
        next_actions = _masked_argmax(q_eval, masks)  # (B,T,I)
    else:  # qmix: target nets pick their own maximizing actions
        next_actions = _masked_argmax(q_target, masks)

    chosen = np.take_along_axis(q_target, next_actions[..., None], axis=-1)[..., 0]  # (B,T,I)

    y = rewards.astype(np.float64).copy()
    mix_a = np.full((B, T), np.nan)
    mix_b = np.full((B, T), np.nan) if learner.algorithm == "double_qmix" else None
    if T > 1:
        flat_states = states[:, 1:, :].reshape(B * (T - 1), -1)
        flat_q = chosen[:, 1:, :].reshape(B * (T - 1), n)
        for mix, mixer in ((mix_a, learner.mixer_a_target), (mix_b, learner.mixer_b_target)):
            if mix is not None:
                mix[:, :-1] = _mixer_apply(mixer, flat_states, flat_q).reshape(B, T - 1)
        tail = mix_a[:, :-1] if mix_b is None else np.minimum(mix_a[:, :-1], mix_b[:, :-1])
        y[:, :-1] += gamma * tail
    return Targets(y=y, mix_a=mix_a, mix_b=mix_b)


def train_step(batch: Sequence[EpisodeRecord], learner: LearnerState
               ) -> tuple[float | None, list[float]]:
    """One gradient step on a batch of episodes; returns (L_mix, per-agent losses)."""
    if learner.algorithm == "random":
        raise ValueError("the random baseline does not train")
    cfg = learner.config
    obs, states, actions, _, rewards = _stack_batch(batch)
    B, T, n, _ = obs.shape
    scale = 1.0 / (B * T)

    targets = compute_targets(batch, learner)
    if not np.all(np.isfinite(targets.y)):
        raise DivergenceError("non-finite bootstrap target")

    if cfg.debug_checks and learner.algorithm == "double_qmix" and T > 1:
        # min-bootstrap property: the discounted tail never exceeds either mixer's value
        tail = targets.y[:, :-1] - rewards[:, :-1]
        for mix in (targets.mix_a, targets.mix_b):
            learner.debug_violations += int(
                np.sum(tail > cfg.gamma * mix[:, :-1] + 1e-9))

    optimizers = [opt for opt in (learner.opt_agents, learner.opt_mixers) if opt is not None]
    for opt in optimizers:
        opt.zero_grad()

    # taped unroll of the eval agents at the actions actually taken
    chosen: list[list[Tensor]] = []
    for i, agent in enumerate(learner.agents_eval):
        h = agent.init_hidden(B)
        per_slot = []
        for t in range(T):
            q, h = agent.step(Tensor(obs[:, t, i, :]), h)
            per_slot.append(q.gather(actions[:, t, i]))
        chosen.append(per_slot)

    independent = learner.algorithm == "independent_dqn"
    direct = cfg.agent_loss_mode == "direct"
    agent_losses: list[float] = []
    total: Tensor | None = None
    l_mix_value: float | None = None

    if not independent:
        acc_mix = None
        for t in range(T):
            qs_t = stack_cols([chosen[i][t].detach() if direct else chosen[i][t]
                               for i in range(n)])
            st_t = Tensor(states[:, t, :])
            y_t = Tensor(targets.y[:, t])
            da = learner.mixer_a_eval.forward(st_t, qs_t) - y_t
            term = (da * da).sum()
            if learner.mixer_b_eval is not None:
                db = learner.mixer_b_eval.forward(st_t, qs_t) - y_t
                term = term + (db * db).sum()
            acc_mix = term if acc_mix is None else acc_mix + term
        total = acc_mix * scale
        l_mix_value = float(total.item())

    if independent or direct:
        # per-agent regression onto its own target, or straight onto the joint-scale one
        for i in range(n):
            acc = None
            for t in range(T):
                d = chosen[i][t] - Tensor(targets.y[:, t, i] if independent else targets.y[:, t])
                term = (d * d).sum()
                acc = term if acc is None else acc + term
            loss_i = acc * scale
            agent_losses.append(float(loss_i.item()))
            total = loss_i if total is None else total + loss_i
    else:
        # agents learn through the mixer; report the per-agent residual as a metric
        for i in range(n):
            vals = np.stack([chosen[i][t].data for t in range(T)], axis=1)
            agent_losses.append(float(np.mean((vals - targets.y) ** 2)))

    if l_mix_value is not None and not np.isfinite(l_mix_value):
        raise DivergenceError(f"non-finite mixer loss {l_mix_value}")
    if not all(np.isfinite(v) for v in agent_losses):
        raise DivergenceError(f"non-finite agent loss {agent_losses}")

    total.backward()
    for opt in optimizers:
        opt.step()
    learner.train_steps += 1
    return l_mix_value, agent_losses


@dataclass
class EpisodeMetrics:
    episode: int
    total_profit: float
    station_profits: tuple[float, ...]
    l_mix: float | None
    agent_loss_mean: float | None
    epsilon: float
    wall_time_s: float


def train(learner: LearnerState, buffer: ReplayBuffer,
          episode_factory: Callable[[], Episode],
          rng: np.random.Generator) -> list[EpisodeMetrics]:
    """Roll, store, sample, step, sync for ``config.episodes`` episodes."""
    cfg = learner.config
    metrics: list[EpisodeMetrics] = []
    for e in range(1, cfg.episodes + 1):
        t0 = time.perf_counter()
        eps = 1.0 if learner.algorithm == "random" else epsilon_at(cfg, e - 1)
        episode = episode_factory()
        record, _ = rollout_episode(episode, learner, eps, rng)
        buffer.add(record)

        l_mix = loss_mean = None
        if learner.algorithm != "random":
            if len(buffer) >= cfg.batch_episodes:
                batch = buffer.sample(cfg.batch_episodes)
                l_mix, losses = train_step(batch, learner)
                loss_mean = float(np.mean(losses))
            if e % cfg.target_period == 0:
                sync_targets(learner)

        learner.episodes_done += 1
        metrics.append(EpisodeMetrics(
            episode=e,
            total_profit=float(record.total_profits.sum()),
            station_profits=tuple(float(v) for v in record.station_profits.sum(axis=0)),
            l_mix=l_mix,
            agent_loss_mean=loss_mean,
            epsilon=eps,
            wall_time_s=time.perf_counter() - t0,
        ))
    return metrics


def greedy_profit(episode: Episode, learner: LearnerState) -> float:
    """Deterministic greedy rollout; total dollars over the episode."""
    record, _ = rollout_episode(episode, learner, epsilon=0.0, rng=None)
    return float(record.total_profits.sum())


# --- checkpoint round-trip -------------------------------------------------

def _checkpoint_params(learner: LearnerState) -> dict[str, Tensor]:
    return {f"{role}.{name}": p for role in ("eval", "target")
            for name, p in learner.parameters(role).items()}


def save_learner(path, learner: LearnerState) -> None:
    meta = {
        "kind": "learner",
        "algorithm": learner.algorithm,
        "n_agents": learner.n_agents,
        "train_config": asdict(learner.config),
        "grid": asdict(learner.grid),
        "scales": asdict(learner.scales),
        "env_params": asdict(learner.env_params),
        "counters": {"train_steps": learner.train_steps,
                     "episodes_done": learner.episodes_done},
    }
    save_checkpoint(path, _checkpoint_params(learner), meta=meta)


def load_learner(path) -> LearnerState:
    """Rebuild a learner from a checkpoint; optimizer moments start fresh."""
    arrays, meta = read_checkpoint(path)
    if meta.get("kind") != "learner":
        raise CheckpointError(f"{path} is not a learner checkpoint")
    config = TrainConfig(**meta["train_config"])
    grid = ActionGrid(ev_fractions=tuple(meta["grid"]["ev_fractions"]),
                      cs_levels=meta["grid"]["cs_levels"])
    scales = ObsScales(**meta["scales"])
    env_params = EssParams(**meta["env_params"])
    learner = build_learner(meta["algorithm"], meta["n_agents"], env_params,
                            grid, scales, config, np.random.default_rng(0))
    restore_params(path, arrays, _checkpoint_params(learner))
    learner.train_steps = meta["counters"]["train_steps"]
    learner.episodes_done = meta["counters"]["episodes_done"]
    return learner
