"""The four benchmark workloads, each a closed loop with one client.

An item is one training episode, one oracle instance, one greedy rollout or
one fuzz batch.  The next item starts only after the previous one finished,
in one process and one thread.  The amount of work depends only on
``--seconds`` (a fixed number of items per second of run length, sized on a
2-core shared Intel Xeon VM), never on how fast the program runs, so two
commits always do identical work and the outputs can be compared byte for
byte.

Output checks run between items or after the last one.  Their time, like
that of the machine probe (see ``Items``), is kept out of ``wall_s`` and out
of every item time, and the tracer is paused while they run.

Every call into the program goes through a module attribute
(``data.synth_demand``, not a name imported from ``data``), so the tracer's
rebinding reaches it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from evcoop import cli, config, data, fuzz, oracle, report
from evcoop.marl import encoding, trainer
from run import PROBE_REF_S

REFERENCES = Path(__file__).with_name("references.json")
REPLAY_TOL = 1e-9
PROFIT_REL_TOL = 1e-9
TICK_S = 0.1            # machine probe interval inside long items


class SetupDone(Exception):
    """Raised at the first item when only set-up is measured.

    Carries the time the item was reached and a probe timed right after.
    """


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def sized(seconds: float, per_second: float, minimum: int) -> int:
    return max(minimum, round(seconds * per_second))


def seed_streams(seed: int) -> tuple[np.random.Generator, ...]:
    """(net-init, demand, exploration, replay) generators, split as ``evcoop train`` does."""
    return tuple(np.random.default_rng(c) for c in np.random.SeedSequence([seed]).spawn(4))


_PROBE_A = np.random.default_rng(0).uniform(-1.0, 1.0, (8, 64))
_PROBE_W = np.random.default_rng(1).uniform(-0.1, 0.1, (64, 64))
_PROBE_OUT = np.empty((8, 64))
_PROBE_ROW = _PROBE_OUT[0, :16]


def machine_probe(iterations: int = 400) -> float:
    """Seconds for a fixed mix of small matrix work and interpreter work (a few ms).

    Each iteration does what the program does most: one product and tanh of
    the shapes of a GRU gate at batch 8, and interpreter-bound scalar work on
    a tiny slice, as in ``core.step``.  Either kind alone tracked one
    workload's slowdowns and missed the other's.  The probe is benchmark code
    that no program change touches, and it allocates no object the garbage
    collector tracks, so it never triggers a collection.  Timed next to
    every item, it tells how fast this shared machine runs at that moment;
    ``Items`` divides that drift out of the item times.
    """
    t0 = perf_counter()
    acc = 0.0
    for i in range(iterations):
        np.matmul(_PROBE_A, _PROBE_W, out=_PROBE_OUT)
        np.tanh(_PROBE_OUT, out=_PROBE_OUT)
        for j in range(2):
            np.multiply(_PROBE_ROW, 0.5, out=_PROBE_ROW)
            acc += float(_PROBE_ROW.sum()) + ((i + j) % 7) * 0.5
    return perf_counter() - t0


machine_probe(50)   # first calls set up numpy's dispatch; keep that out of every probe


class Items:
    """Closed-loop item timing with the machine's speed drift divided out.

    The probe is timed before every item, every ``TICK_S`` seconds while an
    item runs (from a SIGALRM handler, between two bytecodes of the program),
    and once after the last item.  Each stretch of item time between two
    probes is converted to reference seconds: multiplied by ``PROBE_REF_S``
    over the mean of the two probes around it.  Ticks matter for long items
    (an oracle instance takes seconds), over which the machine's speed
    changes.  Probe and check time count toward neither the items nor
    ``wall_s``, nor toward any traced layer.
    """

    def __init__(self, tracer=None, stop_at_first: bool = False):
        self.tracer = tracer
        self.stop_at_first = stop_at_first
        self.ready: float | None = None          # when the first item was reached
        self.raw: list[float] = []               # wall seconds per item
        self.stretches: list[tuple[int, float]] = []  # (item, seconds) between probes j, j+1
        self.probes: list[float] = []
        self.excluded_s = 0.0
        self._first = 0.0
        self._t: float | None = None             # start of the open stretch
        self._busy = False                       # inside an Items method: ticks wait
        self._frame = None

    @property
    def running(self) -> bool:
        return self._t is not None

    def _probe(self) -> None:
        t0 = perf_counter()
        self.probes.append(machine_probe())
        spent = perf_counter() - t0
        self.excluded_s += spent
        if self.tracer is not None:
            self.tracer.excluded_s += spent

    def _close_stretch(self) -> None:
        seconds = perf_counter() - self._t
        self.stretches.append((len(self.raw) - 1, seconds))
        self.raw[-1] += seconds

    def _tick(self, signum, frame) -> None:
        if self._t is None or self._busy:
            return
        self._busy = True
        self._close_stretch()
        self._probe()
        self._t = perf_counter()
        self._busy = False

    def begin(self) -> None:
        now = perf_counter()
        if self.stop_at_first:
            raise SetupDone(now, machine_probe())
        self._busy = True
        self._probe()
        if self.ready is None:
            self.ready = now
            self.excluded_s = 0.0
            self._first = perf_counter()
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.raw.append(0.0)
        if self.tracer is not None:
            self._frame = self.tracer.open("item")
        self._t = perf_counter()
        self._busy = False

    def end(self) -> None:
        self._busy = True
        self._close_stretch()
        self._t = None
        if self.tracer is not None:
            self.tracer.close(self._frame)
        self._busy = False

    def finish(self) -> float:
        """Stop the ticks; wall seconds from the first item to now, less excluded time."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        wall = perf_counter() - self._first - self.excluded_s
        self._probe()          # the probe after the last item
        return wall

    def reference_seconds(self, wall: float) -> tuple[list[float], float]:
        """(seconds per item, wall seconds) in reference seconds; call after ``finish``."""
        ref = [0.0] * len(self.raw)
        for j, (item, seconds) in enumerate(self.stretches):
            ref[item] += seconds * 2.0 * PROBE_REF_S / (self.probes[j] + self.probes[j + 1])
        outside = wall - sum(self.raw)        # the final writes, after the last item
        return ref, sum(ref) + outside * PROBE_REF_S / statistics.median(self.probes)

    @contextlib.contextmanager
    def checking(self):
        t0 = perf_counter()
        if self.tracer is not None:
            self.tracer.active = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.active = True
            self.excluded_s += perf_counter() - t0


class Workload:
    """Base: ``run`` sets up and does the timed items, ``check`` verifies outputs.

    ``check`` returns (failed items, digest of the outputs, info dict).  The
    digest lets a traced run prove it computed what the untraced run did.
    """

    name = ""

    def __init__(self, seed: int, seconds: float, out_dir: Path, tracer=None,
                 stop_at_first: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.items = Items(tracer, stop_at_first)
        self.references = load_references().get(self.name, {})

    @property
    def count(self) -> int:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> tuple[int, str, dict]:
        raise NotImplementedError


class TrainTwoStation(Workload):
    """``evcoop train`` with the default recipe, truncated to ``count`` episodes.

    The run goes through ``cli.main`` exactly as a user's would: config file
    validation, scenario build, learner build, training, then metrics.csv,
    timings.csv and checkpoint.npz.  Item boundaries are taken where each
    episode draws its demand (``cli.synth_demand``), and the last item ends
    when ``cli.train`` returns.
    """

    name = "train-2st"

    @property
    def count(self) -> int:
        # 7 episodes/s at this commit; at least two past the first train step.
        return sized(self.seconds, 7.0, 10)

    def run(self) -> None:
        cfg_path = self.out / "config.json"
        cfg_path.write_text(json.dumps({"train": {"episodes": self.count}}))
        items = self.items
        synth_demand, train = cli.synth_demand, cli.train

        def episode_start(*args, **kwargs):
            if items.running:
                items.end()
            items.begin()
            return synth_demand(*args, **kwargs)

        def train_done(*args, **kwargs):
            out = train(*args, **kwargs)
            items.end()
            return out

        cli.synth_demand, cli.train = episode_start, train_done
        try:
            with contextlib.redirect_stdout(sys.stderr):
                self.exit_code = cli.main([
                    "train", "--config", str(cfg_path), "--algorithm", "double_qmix",
                    "--seed", str(self.seed), "--out", str(self.out)])
        finally:
            cli.synth_demand, cli.train = synth_demand, train
        if self.items.running:      # diverged mid-episode
            self.items.end()

    @property
    def run_dir(self) -> Path:
        return self.out / f"double_qmix_seed{self.seed}"

    def check(self) -> tuple[int, str, dict]:
        info: dict = {"episodes": self.count, "exit_code": self.exit_code}
        metrics_path = self.run_dir / "metrics.csv"
        if self.exit_code != 0 or not metrics_path.exists() \
                or not (self.run_dir / "checkpoint.npz").exists():
            return self.count, "", info
        rows = report.read_metrics_csv(metrics_path)
        batch = config.load_config_dict({}).train.batch_episodes
        good = 0
        for row in rows:
            losses = (row["l_mix"], row["agent_loss_mean"])
            trained = row["episode"] >= batch
            ok = math.isfinite(row["total_profit"]) and all(
                (v is not None and math.isfinite(v)) if trained else v is None for v in losses)
            good += ok
        digest = hashlib.sha256(metrics_path.read_bytes()).hexdigest()
        expected = self.references.get(f"{self.seed}:{self.count}")
        # Informational: a disclosed last-bit change may alter the bytes.
        info["metrics_csv_identical"] = None if expected is None else digest == expected
        info["train_steps"] = sum(r["l_mix"] is not None for r in rows)
        return self.count - good, digest, info


class OracleTiny(Workload):
    """Exact enumeration plus full-lookahead rolling greedy on tiny instances.

    Instances come from ``random_tiny_instance``'s own stream for the seed
    (seed 2024 is the stream of the enumerated-optimum acceptance gate), but
    are taken in a fixed grid mix: per-instance cost varies about tenfold
    with the action grid, so a free mix would make run time depend on the
    seed.  Items cycle through the four built-in grids, cheapest first.
    """

    name = "oracle-tiny"

    @property
    def count(self) -> int:
        # 0.8 instances/s at this commit; a round of four grids takes about 5 s.
        return sized(self.seconds, 0.8, 1)

    def instances(self) -> list:
        grids = [encoding.ActionGrid(ev_fractions=(0.0, 1.0), cs_levels=2),
                 encoding.ActionGrid(ev_fractions=(1.0,), cs_levels=5),
                 encoding.ActionGrid(ev_fractions=(0.0, 1.0), cs_levels=3),
                 encoding.ActionGrid(ev_fractions=(0.0, 0.5, 1.0), cs_levels=2)]
        wanted = [len(range(g, self.count, len(grids))) for g in range(len(grids))]
        pools: list[list] = [[] for _ in grids]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        for _ in range(1000 * self.count):
            if all(len(p) == w for p, w in zip(pools, wanted)):
                break
            inst = oracle.random_tiny_instance(rng)
            g = grids.index(inst.grid)
            if len(pools[g]) < wanted[g]:
                pools[g].append(inst)
        else:
            raise RuntimeError("instance stream did not yield the grid mix")
        return [pools[k % len(grids)][k // len(grids)] for k in range(self.count)]

    def run(self) -> None:
        instances = self.instances()
        self.rows = []
        self.failed = 0
        self.reference_checked = 0
        expected = self.references.get(str(self.seed), [])
        for k, inst in enumerate(instances):
            self.items.begin()
            exact = oracle.brute_force(inst)
            greedy, _ = oracle.rolling_greedy(inst, inst.episode.length)
            self.items.end()
            with self.items.checking():
                tol = PROFIT_REL_TOL * max(1.0, abs(exact.profit))
                replayed, _ = oracle.replay_sequence(inst, exact.actions)
                ok = abs(greedy - exact.profit) <= tol and abs(replayed - exact.profit) <= tol
                if k < len(expected):
                    self.reference_checked += 1
                    ok = ok and abs(exact.profit - expected[k]) <= tol
                self.failed += not ok
            self.rows.append((k, inst.grid.n_actions, exact.profit, greedy, exact.nodes))
        with (self.out / "oracle_profits.csv").open("w") as fh:
            fh.write("instance,n_actions,optimum,greedy,nodes\n")
            for row in self.rows:
                fh.write(",".join(repr(v) for v in row) + "\n")

    def check(self) -> tuple[int, str, dict]:
        digest = hashlib.sha256(repr(self.rows).encode()).hexdigest()
        info = {"instances": self.count, "env_steps": sum(r[4] for r in self.rows),
                "reference_checked": self.reference_checked,
                "optima": [r[2] for r in self.rows]}
        return self.failed, digest, info


class RolloutSixStation(Workload):
    """Greedy rollouts of a freshly built double_qmix learner, as ``evcoop evaluate`` does.

    Six stations on a synthetic 48-slot scenario; every episode draws fresh
    demand from the seed's demand stream, collects its trace and writes
    trace.csv.  The nets run forward-only at batch 1 under ``no_grad``.
    """

    name = "rollout-6st"
    SCENARIO = {"scenario": {"mode": "synthetic", "station_count": 6, "horizon": 48}}

    @property
    def count(self) -> int:
        # 17 episodes/s at this commit.
        return sized(self.seconds, 17.0, 2)

    def run(self) -> None:
        cfg = config.load_config_dict(self.SCENARIO)
        price, pv, demand, stations = config.build_scenario(cfg)
        rng_init, rng_demand, _, _ = seed_streams(self.seed)
        learner = trainer.build_learner("double_qmix", stations, cfg.ess, cfg.grid,
                                        cfg.scales, cfg.train, rng_init)
        trace_path = self.out / "trace.csv"
        digest = hashlib.sha256()
        self.failed = 0
        self.worst = 0.0
        for _ in range(self.count):
            self.items.begin()
            arrivals = data.synth_demand(demand, len(price), stations, rng=rng_demand)
            episode = data.build_episode(price, pv, arrivals, cfg.scenario.initial_soc, cfg.ess)
            _, trace = trainer.rollout_episode(episode, learner, epsilon=0.0, rng=None,
                                               collect_trace=True)
            report.write_trace_csv(trace_path, trace, cfg.ess)
            self.items.end()
            with self.items.checking():
                rows = report.read_trace_csv(trace_path)
                err = report.replay_trace(rows, cfg.ess, cfg.scenario.multipliers)
                self.worst = max(self.worst, err)
                self.failed += not err <= REPLAY_TOL
                digest.update(trace_path.read_bytes())
        self.digest = digest.hexdigest()

    def check(self) -> tuple[int, str, dict]:
        return self.failed, self.digest, {"episodes": self.count, "max_replay_error": self.worst}


class FuzzMarket(Workload):
    """The three market fuzzers in batches, each with the CLI's seed offsets.

    A batch is one hundredth of ``evcoop fuzz`` at its defaults: 1000
    clearing calls, 1000 battery calls and 100 profit calls.
    """

    name = "fuzz-market"
    CALLS = (1000, 1000, 100)

    @property
    def count(self) -> int:
        # 7 batches/s at this commit.
        return sized(self.seconds, 7.0, 2)

    def run(self) -> None:
        n_clear, n_battery, n_profit = self.CALLS
        seeds = [int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
                 for k in range(self.count)]
        self.reports = []
        for s in seeds:
            self.items.begin()
            batch = (fuzz.fuzz_clearing(n_clear, s), fuzz.fuzz_battery(n_battery, s + 1),
                     fuzz.fuzz_profit(n_profit, s + 2))
            self.items.end()
            self.reports.append(batch)

    def check(self) -> tuple[int, str, dict]:
        failed = sum(not all(r.ok for r in batch) for batch in self.reports)
        summary = [(r.name, r.calls, r.violations) for batch in self.reports for r in batch]
        info = {"batches": self.count, "calls": sum(s[1] for s in summary),
                "violations": sum(s[2] for s in summary)}
        return failed, hashlib.sha256(repr(summary).encode()).hexdigest(), info


REGISTRY = {w.name: w for w in (TrainTwoStation, OracleTiny, RolloutSixStation, FuzzMarket)}
