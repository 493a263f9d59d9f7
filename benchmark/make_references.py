"""Regenerate ``references.json``: the outputs the benchmark checks runs against.

    python3 benchmark/make_references.py --seconds 15 --seeds 0-20 7777

For ``train-2st`` it stores the SHA-256 of metrics.csv per ``seed:episodes``;
for ``oracle-tiny`` the exact optimum of each instance in the seed's
stratified stream, in run order.  Existing entries are kept unless
recomputed.  Run it only at a commit whose outputs are known to be right: a
later run that differs from these values counts as failed (oracle) or is
reported as ``metrics_csv_identical: false`` (train).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from evcoop import oracle  # noqa: E402


def parse_seeds(specs: list[str]) -> list[int]:
    seeds: list[int] = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 0-20")
    args = parser.parse_args(argv)

    refs = workloads.load_references()
    work_dir = HERE / "results" / "references"
    for seed in parse_seeds(args.seeds):
        inst_wl = workloads.OracleTiny(seed, args.seconds, work_dir / f"oracle{seed}")
        optima = [oracle.brute_force(inst).profit for inst in inst_wl.instances()]
        refs.setdefault(inst_wl.name, {})[str(seed)] = optima

        train_wl = workloads.TrainTwoStation(seed, args.seconds, work_dir / f"train{seed}")
        train_wl.run()
        train_wl.items.finish()
        if train_wl.exit_code != 0:
            raise SystemExit(f"train-2st seed {seed} failed with exit code {train_wl.exit_code}")
        digest = hashlib.sha256((train_wl.run_dir / "metrics.csv").read_bytes()).hexdigest()
        refs.setdefault(train_wl.name, {})[f"{seed}:{train_wl.count}"] = digest
        print(f"seed {seed}: {len(optima)} optima, metrics.csv {digest[:12]}", flush=True)
        workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
