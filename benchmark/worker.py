"""One benchmark process: set up a workload, run it, check it, print one JSON line.

Started by ``run.py``, never by hand.  Modes:

- ``setup``: stop at the first item and print the time it was reached;
- ``run``: the untraced timed run;
- ``trace``: the same run with the per-layer tracer installed first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from run import BLAS_THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import ``evcoop`` from this checkout's ``src``, and nothing else."""
    package = SRC / "evcoop"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import evcoop
    if Path(evcoop.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported evcoop from {evcoop.__file__}, not {package}")
    return evcoop


def environment(seed: int) -> dict:
    """What a result depends on besides the code: interpreter, BLAS, CPU, source."""
    import hashlib

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode())
            src.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS}},
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


# Per-layer metrics of a traced run: name -> unit.
LAYER_UNITS = {
    "autodiff.backward.calls": "count", "autodiff.backward.s": "s",
    "autodiff.tape_nodes_per_step": "count",
    "layers.mixer_forward.calls": "count", "layers.mixer_forward.s": "s",
    "layers.gru_step.calls": "count", "layers.gru_step.s": "s",
    "optim.adam_step.calls": "count", "optim.adam_step.s": "s",
    "trainer.compute_targets.calls": "count", "trainer.compute_targets.s": "s",
    "trainer.train_step.calls": "count", "trainer.train_step.self_s": "s",
    "trainer.sync_targets.s": "s", "replay.sample.s": "s",
    "core.step.calls": "count", "core.step.s": "s",
    "core.clear_trades.calls": "count", "core.clear_trades.s": "s", "core.profit.s": "s",
    "encoding.decode_table.calls": "count", "encoding.decode_table.s": "s",
    "oracle.brute_force.s": "s", "oracle.rolling_greedy.s": "s", "oracle.env_steps": "count",
    "trainer.rollout_episode.calls": "count", "trainer.rollout_episode.s": "s",
    "trainer.act_epsilon_greedy.calls": "count", "trainer.act_epsilon_greedy.s": "s",
    "encoding.encode_observation.calls": "count", "encoding.encode_observation.s": "s",
    "fuzz.clearing.s": "s", "fuzz.battery.s": "s", "fuzz.profit.s": "s", "fuzz.calls": "count",
    "data.episode_build.s": "s", "config.load.s": "s", "checkpoint.save.s": "s",
    "io.write_s": "s", "io.bytes": "B",
}


def layer_metrics(tracer, info: dict) -> dict:
    """name -> (value, unit) for every per-layer metric; 0 where a layer was idle."""
    values = {}
    for name in LAYER_UNITS:
        prefix, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tracer.calls(prefix)
        elif field == "s":
            values[name] = tracer.busy_s(prefix)
        elif field == "self_s":
            values[name] = tracer.self_s(prefix)
    steps = tracer.calls("trainer.train_step")
    values.update({
        "autodiff.tape_nodes_per_step": tracer.tape_nodes / steps if steps else 0,
        "oracle.env_steps": info.get("env_steps", 0),
        "fuzz.calls": info.get("calls", 0) if "batches" in info else 0,
        "io.write_s": tracer.busy_s("io.write"),
        "io.bytes": tracer.io_bytes,
    })
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import_program()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    out = Path(args.out)
    workload = workloads.REGISTRY[args.workload](
        args.seed, args.seconds, out, tracer, stop_at_first=args.mode == "setup")
    try:
        workload.run()
    except workloads.SetupDone as done:
        ready, probe = done.args
        print(json.dumps({"ready": ready, "probe_s": [probe]}))
        return 0
    items = workload.items
    if items.ready is None:
        raise SystemExit(f"benchmark: {args.workload} failed before its first item")
    wall_s = items.finish()
    item_ref_s, wall_ref_s = items.reference_seconds(wall_s)
    if tracer is not None:
        tracer.active = False
    failed, digest, info = workload.check()

    result = {
        "ready": items.ready,
        "wall_s": wall_s,
        "wall_ref_s": wall_ref_s,
        "item_s": items.raw,
        "item_ref_s": item_ref_s,
        "probe_s": items.probes,
        "stretches": items.stretches,
        "attempted": workload.count,
        "failed": failed,
        "digest": digest,
        "info": info,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, info)
        result["bound"] = tracer.bound
        tracer.write_spans(out / "spans.jsonl")
    (out / "env.json").write_text(json.dumps(environment(args.seed), indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
