"""Recurrent Q-agents, double-mixer training, and the baseline algorithms.

The learner holds an agent bank, every station's DRQN agent stacked on one
axis, and for the mixer algorithms a mixer bank: mixer A and, for
double_qmix, mixer B of the monotone mixer on one axis.  Each bank has an
eval and a target copy.  Training follows the recurrent pattern: whole
episodes are replayed and hidden states re-unrolled from zero, one
gradient step per training episode.  The target agents stay frozen between
syncs, so each replayed episode's target-agent Q-values are computed once
per target period and kept on the learner; reassigning any target agent
array, as each sync does, empties that cache.  An episode unrolled alone
takes two rows, since numpy's one-row product (gemv) rounds differently.

Each algorithm is one row of ``ALGORITHM_TRAITS``.  ``double_qmix`` bootstraps
with the elementwise minimum of the two target mixers, evaluated at next-slot
actions picked by the *eval* agents, which curbs the optimistic bias a single
maximizing mixer accrues.  ``qmix`` is the single-mixer baseline with
target-net action selection.  ``independent_dqn`` trains each agent on the
shared reward with no mixer.  ``random`` never trains.  Every policy's
episode, the learner's and the oracle's, runs through one slot loop,
``run_episode``, with its own chooser.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..core import EssParams, PriceQuote, StationAction, StationState, StepOutcome, settle
from ..data import Episode
from ..nn import Adam, Dense, DivergenceError, GRUCell, MonotonicMixer, Tensor, stack_layers
from ..nn.checkpoint import CheckpointError, read_checkpoint, restore_params, save_checkpoint
from .encoding import OBS_DIM, ActionGrid, ObsScales, encode_observation
from .replay import EpisodeRecord, ReplayBuffer


class AlgorithmTraits(NamedTuple):
    mixers: int  # the mixer bank's size: 0 (independent learners), 1 (mixer A) or 2 (A and B)
    eval_selects: bool  # the eval agents pick next-slot actions, else the target agents
    trains: bool


ALGORITHM_TRAITS = {
    "double_qmix": AlgorithmTraits(mixers=2, eval_selects=True, trains=True),
    "qmix": AlgorithmTraits(mixers=1, eval_selects=False, trains=True),
    "independent_dqn": AlgorithmTraits(mixers=0, eval_selects=False, trains=True),
    "random": AlgorithmTraits(mixers=0, eval_selects=False, trains=False),
}
ALGORITHMS = tuple(ALGORITHM_TRAITS)


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

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        for name in ("lr_agent", "lr_mixer", "reward_scale"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
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
    """n stations' encoder -> GRU -> Q-head agents, banked: slice i of each parameter is station i's.

    Each station's layers are drawn from ``rng`` in turn, then stacked.
    """

    def __init__(self, n_agents: int, obs_dim: int, n_actions: int, hidden_dim: int,
                 rng: np.random.Generator):
        stations = [(Dense(obs_dim, hidden_dim, "relu", rng), GRUCell(hidden_dim, hidden_dim, rng),
                     Dense(hidden_dim, n_actions, "none", rng)) for _ in range(n_agents)]
        self.encoder, self.gru, self.head = map(stack_layers, zip(*stations))

    def step(self, obs: np.ndarray, hidden: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """One untaped slot for acting, on plain arrays.

        (n, B, obs_dim) from hidden (n, B, H), zero when None -> Q (n, B, A), hidden.
        The taped ``encoder``, ``gru.sequence(..., B, 1, h0)`` and ``head`` wrap the
        same forwards (``Dense.apply`` and the GRU's slot kernel) and give these
        values bit for bit; this path only skips building ``Tensor`` results.
        """
        h = self.gru.step(self.encoder.apply(obs), hidden)
        return self.head.apply(h), h

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
    agents_eval: DRQNAgent
    agents_target: DRQNAgent
    mixers_eval: MonotonicMixer | None
    mixers_target: MonotonicMixer | None
    opt_agents: Adam | None
    opt_mixers: Adam | None
    train_steps: int = 0
    episodes_done: int = 0
    debug_violations: int = 0
    # The target agents' (T, I, A) Q-values of every episode replayed since their
    # parameter arrays were last reassigned (``sync_targets`` does so), under
    # ``id(record)``; each entry holds its record, so no id is reused while
    # cached.  ``target_arrays`` holds the arrays the values were computed from,
    # so their ids, the cache's key, cannot be reused either.
    # An in-place write to those arrays goes unseen: only ``load_learner``'s
    # ``restore_params`` makes one, into a learner that has cached nothing yet.
    target_values: dict[int, tuple[EpisodeRecord, np.ndarray]] = field(
        default_factory=dict, repr=False)
    target_arrays: list[np.ndarray] = field(default_factory=list, repr=False)

    @property
    def traits(self) -> AlgorithmTraits:
        return ALGORITHM_TRAITS[self.algorithm]

    def parameters(self, role: str) -> dict[str, Tensor]:
        """Every ``role`` ("eval" or "target") parameter: the agent bank's under ``agents.``,
        the mixer bank's under ``mixers.``."""
        out = getattr(self, f"agents_{role}").parameters("agents.")
        mixers = getattr(self, f"mixers_{role}")
        if mixers is not None:
            out.update(mixers.parameters("mixers."))
        return out


def build_learner(algorithm: str, n_agents: int, env_params: EssParams,
                  grid: ActionGrid, scales: ObsScales, config: TrainConfig,
                  rng: np.random.Generator) -> LearnerState:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if n_agents < 1:
        raise ValueError("need at least one station")
    state_dim, traits = n_agents * OBS_DIM, ALGORITHM_TRAITS[algorithm]

    def make_agents():
        return DRQNAgent(n_agents, OBS_DIM, grid.n_actions, config.hidden_dim, rng)

    def make_mixer():
        return MonotonicMixer(state_dim, n_agents, config.embed_dim, config.hyper_hidden, rng)

    agents_eval = make_agents()
    agents_target = make_agents()
    mixers_eval = mixers_target = None
    if traits.mixers:
        # drawn as mixer A's eval and target nets, then mixer B's
        drawn = [make_mixer() for _ in range(2 * traits.mixers)]
        mixers_eval, mixers_target = stack_layers(drawn[0::2]), stack_layers(drawn[1::2])

    learner = LearnerState(
        algorithm=algorithm, config=config, env_params=env_params, grid=grid,
        scales=scales, n_agents=n_agents,
        agents_eval=agents_eval, agents_target=agents_target,
        mixers_eval=mixers_eval, mixers_target=mixers_target,
        opt_agents=None, opt_mixers=None,
    )
    if traits.trains:
        learner.opt_agents = Adam(agents_eval.parameters("agents."), lr=config.lr_agent)
        if traits.mixers:
            learner.opt_mixers = Adam(mixers_eval.parameters("mixers."), lr=config.lr_mixer)
    for p in learner.parameters("target").values():
        p.requires_grad = False  # constants between syncs: they build no tape
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


def act_epsilon_greedy(q: np.ndarray, epsilon: float, masks: np.ndarray,
                       rng: np.random.Generator | None) -> np.ndarray:
    """Each station's action from its row of ``q`` (n, A) under its row of ``masks`` (n, A).

    One masked argmax picks every greedy action; then, station by station,
    one draw decides whether to explore (w.p. ``epsilon``) and a second picks
    uniformly among that station's feasible actions.
    """
    counts = masks.sum(axis=-1)
    if not counts.all():
        raise ValueError("empty feasibility mask")
    actions = _masked_argmax(q, masks)
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an rng")
        for i, count in enumerate(counts.tolist()):
            if rng.random() < epsilon:
                actions[i] = np.flatnonzero(masks[i])[rng.integers(count)]
    return actions


@dataclass
class SlotLog:
    """Everything observed at one slot of a rollout, for trace emission."""

    states: tuple[StationState, ...]
    actions: list[StationAction]
    outcome: StepOutcome
    quote: PriceQuote
    renewables: tuple[float, ...]


def _indices(chosen, n: int, t: int) -> np.ndarray:
    """A chooser's ``chosen`` as n integer action indices, else a ValueError naming slot ``t``."""
    try:
        picks = np.asarray(chosen)
    except ValueError:  # ragged
        picks = np.empty(0)
    if picks.shape != (n,) or picks.dtype.kind not in "iu":
        raise ValueError(f"slot {t}: the chooser returned {chosen!r}, not {n} integer indices")
    return picks


def run_episode(episode: Episode, params: EssParams, grid: ActionGrid,
                choose: Callable[..., Sequence[int]], collect_trace: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[SlotLog] | None]:
    """One episode under any policy: actions, masks, total and station profit, trace.

    At slot t each station's ``grid.blocks`` fill its row of ``masks[t]`` (n, A),
    ``choose(t, states, masks[t])`` returns one action index per station, and
    ``core.settle`` settles the chosen blocks' intervals."""
    T, n, m = episode.length, episode.station_count, grid.cs_levels
    actions, masks = np.zeros((T, n), dtype=np.int64), np.zeros((T, n, grid.n_actions), dtype=bool)
    mask_blocks = masks.reshape(T, n, len(grid.ev_fractions), m)  # a view
    totals, station = np.zeros(T), np.zeros((T, n))
    trace: list[SlotLog] | None = [] if collect_trace else None

    states = episode.initial_states
    for t in range(T):
        quote, renew = episode.quotes[t], episode.renewables[t]
        blocks = [grid.blocks(states[i], renew[i], params) for i in range(n)]
        mask_blocks[t] = np.array([b is not None for bl in blocks for b in bl]).reshape(n, -1, 1)
        actions[t] = picks = _indices(choose(t, states, masks[t]), n, t)
        picked = list(zip(blocks, picks.tolist()))
        chosen = [grid.action(bl, idx) for bl, idx in picked]
        intervals = [bl[idx // m][1] for bl, idx in picked]
        outcome = settle(states, chosen, intervals, quote, episode.arrivals[t], params)
        totals[t] = outcome.total_profit
        station[t] = outcome.station_profit
        if trace is not None:
            trace.append(SlotLog(states, chosen, outcome, quote, renew))
        states = tuple(outcome.next_states)
    return actions, masks, totals, station, trace


def rollout_episode(episode: Episode, learner: LearnerState, epsilon: float,
                    rng: np.random.Generator | None, collect_trace: bool = False
                    ) -> tuple[EpisodeRecord, list[SlotLog] | None]:
    """Run one episode under the learner's epsilon-greedy policy (``run_episode``'s chooser)."""
    n = episode.station_count
    if n != learner.n_agents:
        raise ValueError(f"episode has {n} stations, learner expects {learner.n_agents}")
    obs = np.zeros((episode.length, n, OBS_DIM))
    hidden = None

    def choose(t, states, masks):
        nonlocal hidden
        obs[t] = block = encode_observation(states, episode.renewables[t], episode.quotes[t].utility,
                                            learner.env_params, learner.scales)
        q, hidden = learner.agents_eval.step(block[:, None, :], hidden)
        return act_epsilon_greedy(q[:, 0], epsilon, masks, rng)

    actions, masks, totals, station, trace = run_episode(
        episode, learner.env_params, learner.grid, choose, collect_trace)
    record = EpisodeRecord(obs=obs, actions=actions, masks=masks,
                           rewards=totals * learner.config.reward_scale,
                           total_profits=totals, station_profits=station)
    return record, trace


def _stack_batch(batch: Sequence[EpisodeRecord]):
    T = batch[0].length
    if any(r.length != T for r in batch):
        raise ValueError("episodes in one batch must share a length")
    return tuple(np.stack([getattr(r, name) for r in batch])
                 for name in ("obs", "actions", "masks", "rewards"))


def _agent_rows(obs: np.ndarray) -> np.ndarray:
    """(B, T, I, 6) observations as each agent's batch-major rows (row ``b * T + t``): (I, B*T, 6)."""
    B, T, n, _ = obs.shape
    return obs.transpose(2, 0, 1, 3).reshape(n, B * T, -1)


def _unroll(agents: DRQNAgent, obs: np.ndarray) -> Tensor:
    """Q-values of every agent at every slot: (B, T, I, 6) -> (I, B*T, A).

    The encoder and the Q-head see the whole block at once; only the
    recurrence steps through the slots.  Taped for the eval agents only,
    whose parameters require a gradient.
    """
    B, T = obs.shape[:2]
    return agents.head(agents.gru.sequence(agents.encoder(Tensor(_agent_rows(obs))), B, T))


def _values(q: np.ndarray, batch: int, steps: int) -> np.ndarray:
    """An unroll's (I, B*T, A) Q-values as one (B, T, I, A) array."""
    return q.reshape(-1, batch, steps, q.shape[-1]).transpose(1, 2, 0, 3)


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


def _target_values(batch: Sequence[EpisodeRecord], learner: LearnerState) -> np.ndarray:
    """The target agents' (B, T, I, A) Q-values of ``batch``, each episode unrolled once
    per target period.

    The values live in ``learner.target_values`` until the target agents'
    parameter arrays change, which empties it.  The episodes it does not hold
    are unrolled once each, however often they were sampled, in one ``_unroll``.
    A lone one takes two rows when the batch has more: numpy runs a one-row
    recurrent product through gemv, whose sums round differently, while every
    wider unroll gives each row the bits of the full batch's unroll.
    """
    arrays = [p.data for p in learner.agents_target.parameters().values()]
    if list(map(id, arrays)) != list(map(id, learner.target_arrays)):
        learner.target_values.clear()
        learner.target_arrays = arrays
    held = learner.target_values
    missing = {id(r): r for r in batch if id(r) not in held}
    if missing:
        records = list(missing.values())
        if len(records) == 1 < len(batch):
            records *= 2
        obs = np.stack([r.obs for r in records])
        q = _values(_unroll(learner.agents_target, obs).data, *obs.shape[:2])
        held.update((id(r), (r, values)) for r, values in zip(missing.values(), q))
    return np.stack([held[id(r)][1] for r in batch])


def compute_targets(batch: Sequence[EpisodeRecord], states: np.ndarray, masks: np.ndarray,
                    rewards: np.ndarray, q_eval: np.ndarray,
                    learner: LearnerState) -> Targets:
    """One bootstrap for every algorithm: next actions, target values, reward plus discounted tail.

    Takes the batch's records, their stacked arrays and the eval agents'
    (B, T, I, A) Q-values.  The target agents' values come from
    ``_target_values``: computed once per episode per target period, kept
    until a target agent array is reassigned, and unrolled in two rows for an
    episode unrolled alone, so they equal the full batch's unroll bit for bit.
    The eval or the target agents, as the algorithm's row says, pick each
    next-slot action by masked argmax.  With no mixer each agent's tail is the
    target agents' value there; else the target mixer bank mixes those values
    and the tail is the minimum over its mixers, on every call, since its
    inputs follow the eval agents' picks.  The target nets run the eval nets'
    own forward, ``_unroll`` and the mixer bank's ``forward``; no target
    parameter requires a gradient, so neither is taped.
    """
    B, T, n = masks.shape[:3]
    gamma, traits = learner.config.gamma, learner.traits

    q_target = _target_values(batch, learner)
    next_actions = _masked_argmax(q_eval if traits.eval_selects else q_target, masks)  # (B,T,I)
    chosen = np.take_along_axis(q_target, next_actions[..., None], axis=-1)[..., 0]  # (B,T,I)

    if not traits.mixers:
        y = np.repeat(rewards[:, :, None], n, axis=2)
        y[:, :-1] += gamma * chosen[:, 1:]
        return Targets(y=y)

    y = rewards.astype(np.float64).copy()
    k = traits.mixers
    mixes = np.full((k, B, T), np.nan)  # mixer A's values, then mixer B's
    if T > 1:
        mixes[:, :, :-1] = learner.mixers_target.forward(
            states[:, 1:, :].reshape(B * (T - 1), -1),
            Tensor(chosen[:, 1:, :].reshape(B * (T - 1), n))).data.reshape(k, B, T - 1)
        y[:, :-1] += gamma * mixes[:, :, :-1].min(axis=0)
    return Targets(y=y, mix_a=mixes[0], mix_b=mixes[1] if k > 1 else None)


STEP_PHASES = ("targets_s", "forward_s", "backward_s", "optimizer_s")


def train_step(batch: Sequence[EpisodeRecord], learner: LearnerState
               ) -> tuple[float | None, list[float], dict[str, float]]:
    """One gradient step on a batch of episodes.

    Returns (L_mix, per-agent losses, seconds per phase).  The phases
    (``STEP_PHASES``) are ``compute_targets``, the taped forward (the eval
    unroll, the mixer bank and the losses), the backward pass and the
    optimizer steps.
    """
    cfg, traits = learner.config, learner.traits
    if not traits.trains:
        raise ValueError(f"{learner.algorithm} does not train")
    obs, actions, masks, rewards = _stack_batch(batch)
    B, T = obs.shape[:2]
    states = obs.reshape(B, T, -1)  # the mixers' global state: every agent's observation
    scale = 1.0 / (B * T)

    # the one taped unroll of the eval agents; its values also serve the targets
    t_unroll = time.perf_counter()
    q_eval = _unroll(learner.agents_eval, obs)
    t_targets = time.perf_counter()
    targets = compute_targets(batch, states, masks, rewards, _values(q_eval.data, B, T), learner)
    t_forward = time.perf_counter()
    if not np.all(np.isfinite(targets.y)):
        raise DivergenceError("non-finite bootstrap target")

    if traits.mixers == 2 and T > 1:
        # min-bootstrap property: the discounted tail never exceeds either mixer's value
        tail = targets.y[:, :-1] - rewards[:, :-1]
        for mix in (targets.mix_a, targets.mix_b):
            learner.debug_violations += int(
                np.sum(tail > cfg.gamma * mix[:, :-1] + 1e-9))

    # each agent's Q-value at the actions actually taken, (I, B*T)
    chosen = q_eval.gather(actions.reshape(B * T, -1).T)

    independent = not traits.mixers
    direct = cfg.agent_loss_mode == "direct"
    total: Tensor | None = None
    l_mix_value: float | None = None

    if not independent:
        # the eval mixer bank mixes all B*T (episode, slot) rows at once, (k, B*T)
        qs = (chosen.detach() if direct else chosen).transpose()
        d = learner.mixers_eval.forward(states.reshape(B * T, -1), qs) - Tensor(
            targets.y.reshape(B * T))
        # each mixer's squared error, then their sum
        total = (d * d).sum(axis=1).sum() * scale
        l_mix_value = float(total.item())

    # each agent's own target, or the joint-scale one for all: (I, B*T) or (1, B*T)
    y_agents = targets.y.reshape(B * T, -1).T
    if independent or direct:
        # per-agent regression; row i's sum is agent i's loss
        d = chosen - Tensor(y_agents)
        losses = (d * d).sum(axis=1) * scale
        agent_losses = losses.data.tolist()
        total = losses.sum() if total is None else total + losses.sum()
    else:
        # agents learn through the mixer; report the per-agent residual as a metric
        agent_losses = np.mean((chosen.data - y_agents) ** 2, axis=1).tolist()

    if l_mix_value is not None and not np.isfinite(l_mix_value):
        raise DivergenceError(f"non-finite mixer loss {l_mix_value}")
    if not all(np.isfinite(v) for v in agent_losses):
        raise DivergenceError(f"non-finite agent loss {agent_losses}")

    t_backward = time.perf_counter()
    optimizers = [opt for opt in (learner.opt_agents, learner.opt_mixers) if opt is not None]
    for opt in optimizers:
        opt.zero_grad()
    total.backward()
    t_optimizer = time.perf_counter()
    for opt in optimizers:
        opt.step()
    learner.train_steps += 1
    phases = (t_forward - t_targets, (t_targets - t_unroll) + (t_backward - t_forward),
              t_optimizer - t_backward, time.perf_counter() - t_optimizer)
    return l_mix_value, agent_losses, dict(zip(STEP_PHASES, phases))


@dataclass
class EpisodeMetrics:
    """One metrics.csv row; None where a row has no such value (oracle rows).

    ``wall_time_s`` and the per-phase seconds go to timings.csv only.
    """

    episode: int
    total_profit: float
    station_profits: tuple[float, ...]
    l_mix: float | None
    agent_loss_mean: float | None
    epsilon: float | None
    wall_time_s: float | None
    rollout_s: float | None = None
    train_step_s: float | None = None
    targets_s: float | None = None
    forward_s: float | None = None
    backward_s: float | None = None
    optimizer_s: float | None = None
    sync_s: float | None = None


def train(learner: LearnerState, buffer: ReplayBuffer,
          episode_factory: Callable[[], Episode],
          rng: np.random.Generator) -> list[EpisodeMetrics]:
    """Roll, store, sample, step, sync for ``config.episodes`` episodes."""
    cfg = learner.config
    metrics: list[EpisodeMetrics] = []
    for e in range(1, cfg.episodes + 1):
        t0 = time.perf_counter()
        eps = epsilon_at(cfg, e - 1) if learner.traits.trains else 1.0
        episode = episode_factory()
        t_roll = time.perf_counter()
        record, _ = rollout_episode(episode, learner, eps, rng)
        rollout_s = time.perf_counter() - t_roll
        buffer.add(record)

        l_mix = loss_mean = None
        train_step_s = sync_s = 0.0
        phases = dict.fromkeys(STEP_PHASES, 0.0)
        if learner.traits.trains:
            if len(buffer) >= cfg.batch_episodes:
                batch = buffer.sample(cfg.batch_episodes)
                t_step = time.perf_counter()
                l_mix, losses, phases = train_step(batch, learner)
                train_step_s = time.perf_counter() - t_step
                loss_mean = float(np.mean(losses))
            if e % cfg.target_period == 0:
                t_sync = time.perf_counter()
                sync_targets(learner)
                sync_s = time.perf_counter() - t_sync

        learner.episodes_done += 1
        metrics.append(EpisodeMetrics(
            episode=e,
            total_profit=float(record.total_profits.sum()),
            station_profits=tuple(float(v) for v in record.station_profits.sum(axis=0)),
            l_mix=l_mix,
            agent_loss_mean=loss_mean,
            epsilon=eps,
            wall_time_s=time.perf_counter() - t0,
            rollout_s=rollout_s,
            train_step_s=train_step_s,
            sync_s=sync_s,
            **phases,
        ))
    return metrics


# --- checkpoint round-trip -------------------------------------------------

def _checkpoint_params(learner: LearnerState) -> dict[str, Tensor]:
    """Every eval, then target parameter under ``<role>.<its parameters(role) name>``."""
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
    try:
        config = TrainConfig(**meta["train_config"])
        grid = ActionGrid(ev_fractions=tuple(meta["grid"]["ev_fractions"]),
                          cs_levels=meta["grid"]["cs_levels"])
        scales = ObsScales(**meta["scales"])
        env_params = EssParams(**meta["env_params"])
        learner = build_learner(meta["algorithm"], meta["n_agents"], env_params,
                                grid, scales, config, np.random.default_rng(0))
        learner.train_steps = meta["counters"]["train_steps"]
        learner.episodes_done = meta["counters"]["episodes_done"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path} has unusable learner metadata: {type(exc).__name__}: {exc}") from exc
    restore_params(path, arrays, _checkpoint_params(learner))
    return learner
