"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer rebinds public functions and methods of the ``evcoop`` modules to
timing wrappers.  A function is rebound under every name a loaded ``evcoop``
module holds it by (``core.step`` is also ``oracle.env_step``,
``marl.trainer.env_step``, ``fuzz.step`` and ``report.step``), because a
caller that imported it by name would otherwise bypass the wrapper.

Coarse boundaries (an item, a rollout, a train step, a backward pass, an
oracle search) become spans with parent links, kept in memory and written
out when the run ends.  Hot leaves (``core.step`` runs tens of thousands of
times per oracle instance) only add to a per-name aggregate of calls, busy
seconds and self seconds, so memory stays bounded.  Self time is busy time
minus the time of traced calls made from inside.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

# (module, attribute, metric prefix, kind); kind is "span", "leaf" or "io".
FUNCTIONS = (
    ("evcoop.core", "step", "core.step", "leaf"),
    ("evcoop.core", "clear_trades", "core.clear_trades", "leaf"),
    ("evcoop.core", "profit", "core.profit", "leaf"),
    ("evcoop.data", "synth_demand", "data.episode_build", "leaf"),
    ("evcoop.data", "build_episode", "data.episode_build", "leaf"),
    ("evcoop.config", "load_config_dict", "config.load", "span"),
    ("evcoop.config", "build_scenario", "config.build_scenario", "span"),
    ("evcoop.marl.encoding", "encode_observation", "encoding.encode_observation", "leaf"),
    ("evcoop.marl.trainer", "build_learner", "trainer.build_learner", "span"),
    ("evcoop.marl.trainer", "act_epsilon_greedy", "trainer.act_epsilon_greedy", "leaf"),
    ("evcoop.marl.trainer", "rollout_episode", "trainer.rollout_episode", "span"),
    ("evcoop.marl.trainer", "compute_targets", "trainer.compute_targets", "span"),
    ("evcoop.marl.trainer", "train_step", "trainer.train_step", "span"),
    ("evcoop.marl.trainer", "sync_targets", "trainer.sync_targets", "span"),
    ("evcoop.nn.checkpoint", "save_checkpoint", "checkpoint.save", "span"),
    ("evcoop.oracle", "brute_force", "oracle.brute_force", "span"),
    ("evcoop.oracle", "rolling_greedy", "oracle.rolling_greedy", "span"),
    ("evcoop.fuzz", "fuzz_clearing", "fuzz.clearing", "span"),
    ("evcoop.fuzz", "fuzz_battery", "fuzz.battery", "span"),
    ("evcoop.fuzz", "fuzz_profit", "fuzz.profit", "span"),
    ("evcoop.report", "write_metrics_csv", "io.write", "io"),
    ("evcoop.report", "write_timings_csv", "io.write", "io"),
    ("evcoop.report", "write_trace_csv", "io.write", "io"),
    ("evcoop.marl.trainer", "save_learner", "io.write", "io"),
)

# (module, class, method, metric prefix, kind)
METHODS = (
    ("evcoop.nn.autodiff", "Tensor", "backward", "autodiff.backward", "span"),
    ("evcoop.nn.optim", "Adam", "step", "optim.adam_step", "span"),
    ("evcoop.nn.layers", "GRUCell", "step", "layers.gru_step", "leaf"),
    ("evcoop.nn.layers", "MonotonicMixer", "forward", "layers.mixer_forward", "leaf"),
    ("evcoop.marl.encoding", "ActionGrid", "decode_table", "encoding.decode_table", "leaf"),
    ("evcoop.marl.replay", "ReplayBuffer", "sample", "replay.sample", "leaf"),
)


class Tracer:
    """Spans, per-name aggregates and counters for one traced run."""

    def __init__(self):
        self.active = True
        self.stack: list[list] = []          # open frames, innermost last
        self.spans: list[tuple] = []         # (id, parent id, name, start, end)
        self.totals: dict[str, list] = {}    # name -> [calls, busy s, self s]
        self.excluded_s = 0.0                # benchmark time (machine probes) inside frames
        self.tape_nodes = 0
        self.io_bytes = 0
        self.bound: list[str] = []

    # -- frames -------------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def open(self, name: str, span: bool = True) -> list:
        # [name, span id, child seconds, start, excluded_s at start, parent span id]
        frame = [name, None, 0.0, perf_counter(), self.excluded_s, None]
        if span:
            frame[1] = len(self.spans)
            self.spans.append(None)          # slot filled on close
            frame[5] = self._parent_span()
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        if not self.stack or self.stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self.stack.pop()
        name, span_id, child, start, excluded, parent = frame
        busy = end - start - (self.excluded_s - excluded)
        agg = self.totals.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += busy
        agg[2] += busy - child
        if self.stack:
            self.stack[-1][2] += busy
        if span_id is not None:
            self.spans[span_id] = (span_id, parent, name, start, end)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        tracer = self
        span = kind != "leaf"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.open(name, span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if kind == "io":
                tracer.io_bytes += os.path.getsize(args[0])
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "evcoop" and not mod_name.startswith("evcoop."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self.bound.append(f"{mod_name}.{attr}")

    def install(self) -> None:
        """Rebind every traced function and method; call once per process."""
        import importlib

        for mod_name, attr, name, kind in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            self._rebind(original, self._wrap(original, name, kind))
        for mod_name, cls_name, attr, name, kind in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            setattr(cls, attr, self._wrap(cls.__dict__[attr], name, kind))
            self.bound.append(f"{mod_name}.{cls_name}.{attr}")

        # Tape size: Tensor._result records a node only when the graph is on
        # and a parent requires grad, which shows as requires_grad on the result.
        tensor = importlib.import_module("evcoop.nn.autodiff").Tensor
        result = tensor.__dict__["_result"].__func__
        tracer = self

        def counted(data, parents, backward_fn):
            out = result(data, parents, backward_fn)
            if out.requires_grad and tracer.active:
                tracer.tape_nodes += 1
            return out

        tensor._result = staticmethod(counted)
        self.bound.append("evcoop.nn.autodiff.Tensor._result")

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def busy_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is None:
                    continue
                span_id, parent, name, start, end = span
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
