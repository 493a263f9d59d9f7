"""evcoop benchmark: one workload, one closed loop, one JSON line of results.

    python3 benchmark/run.py --workload train-2st --seed 0 --seconds 15 --trace 0

Run from the root of a checkout that holds ``src/evcoop``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones of a traced run, which is compared against an
untraced run of the same inputs.  See ``benchmark/README.md``.

This process only starts and times worker processes (``worker.py``); it
imports neither numpy nor the program, so interpreter start, imports and
set-up all fall inside ``setup_s``.  Every worker gets the BLAS thread
variables set to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("train-2st", "oracle-tiny", "rollout-6st", "fuzz-market")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A reference second is a second of a machine on which the machine probe
# (workloads.machine_probe) takes this long, its typical time on the 2-core
# shared Intel Xeon VM the benchmark was sized on.
PROBE_REF_S = 0.005
SETUP_SAMPLES = 7          # setup-only processes; the timed run adds one more sample
BUDGET_S = 170.0           # every worker of one invocation must finish within this


class BenchError(RuntimeError):
    pass


def spawn(mode: str, args, out: Path, deadline: float) -> tuple[dict, float]:
    """Run one worker; returns (its JSON result, perf_counter stamp just before start)."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", str(out)]
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError(f"time budget of {BUDGET_S:.0f}s used up before the {mode} worker")
    started = perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the {BUDGET_S:.0f}s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    if mode != "setup":
        (out / "worker.json").write_text(lines[-1] + "\n")
    return json.loads(lines[-1]), started


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(args, out: Path, deadline: float) -> tuple[dict, dict]:
    runs = [spawn("setup", args, out / f"setup{r}", deadline) for r in range(SETUP_SAMPLES)]
    result, started = spawn("run", args, out / "run", deadline)
    runs.append((result, started))
    # Set-up in reference seconds, scaled by the probe timed right after it.
    raw_setups = [ready["ready"] - started for ready, started in runs]
    setups = [s * PROBE_REF_S / ready["probe_s"][0] for s, (ready, _) in zip(raw_setups, runs)]

    wall_s = result["wall_ref_s"]
    items_ms = [1000.0 * s for s in result["item_ref_s"]]
    raw_ms = [1000.0 * s for s in result["item_s"]]
    n = len(items_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (n / wall_s, "1/s"),
        "item_ms.p50": (percentile(items_ms, 50), "ms"),
        "item_ms.p90": (percentile(items_ms, 90), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    # A percentile is resolved when at least ten items lie above it.
    resolved = 100.0 * (1.0 - 10.0 / n) if n > 10 else None
    notes = {
        "failed_ratio": result["failed"] / result["attempted"],
        "items": n,
        "items_above_p90": sum(v > metrics["item_ms.p90"][0] for v in items_ms),
        "highest_resolved_percentile": resolved,
        "setup_samples_s": setups,
        "raw_setup_s": statistics.median(raw_setups),
        "raw_wall_s": result["wall_s"],
        "raw_items_per_s": n / result["wall_s"],
        "raw_item_ms.p50": percentile(raw_ms, 50),
        "raw_item_ms.p90": percentile(raw_ms, 90),
        "probe_ms.p50": 1000.0 * statistics.median(result["probe_s"]),
        **result["info"],
    }
    return result, {"metrics": metrics, "notes": notes}


def per_layer(args, out: Path, deadline: float) -> tuple[dict, dict]:
    plain, _ = spawn("run", args, out / "run", deadline)
    traced, _ = spawn("trace", args, out / "trace", deadline)
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics["trace.untraced_wall_s"] = (plain["wall_ref_s"], "s")
    metrics["trace.traced_wall_s"] = (traced["wall_ref_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_ref_s"] - plain["wall_ref_s"], "s")
    match = plain["digest"] == traced["digest"]
    # Outputs that differ from the untraced run's cannot be pinned to an item.
    failed = max(traced["failed"], plain["failed"]) if match else traced["attempted"]
    result = dict(traced, failed=failed)
    notes = {"outputs_match_untraced": match, "rebound": traced["bound"], **traced["info"]}
    return result, {"metrics": metrics, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; fixes the amount of work (fractions give a smoke run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result directory (default: benchmark/results/...)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = perf_counter() + BUDGET_S
    if not (ROOT / "src" / "evcoop" / "__init__.py").is_file():
        print(f"benchmark: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else \
        HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        measure = per_layer if args.trace else end_to_end
        result, report = measure(args, out, deadline)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }
    env = json.loads((out / ("trace" if args.trace else "run") / "env.json").read_text())
    (out / "result.json").write_text(json.dumps(
        dict(line, notes=report["notes"], environment=env, seconds=args.seconds), indent=2) + "\n")
    for name, (value, unit) in report["metrics"].items():
        print(f"{args.workload:<12} {name:<36} {value:>14.6g} {unit}")
    for name, value in report["notes"].items():
        if name not in ("rebound", "setup_samples_s", "optima"):
            print(f"{args.workload:<12} {name:<36} {value}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
