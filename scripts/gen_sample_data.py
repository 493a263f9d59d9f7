#!/usr/bin/env python3
"""Regenerate the bundled sample scenario CSVs (deterministic).

Run from the repository root:

    python3 scripts/gen_sample_data.py

The package is imported from the ``src`` next to this script, not from the
environment.
"""

import csv
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from evcoop.config import SAMPLE_CSVS  # noqa: E402
from evcoop.data import synth_price_series, synth_pv_series  # noqa: E402

OUT = SRC / "evcoop" / "sample_data"

HORIZON = 48
STATIONS = 2
SEED_PRICE = 2024
SEED_PV = 2025


def main() -> None:
    price = synth_price_series(HORIZON, SEED_PRICE, base=0.12, swing=0.10,
                               noise_sigma=0.003)
    pv = synth_pv_series(HORIZON, STATIONS, SEED_PV, peak_kwh=8.0)
    price_path, pv_path = (OUT / name for name in SAMPLE_CSVS)

    with price_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "price_usd_per_kwh"])
        for ts, p in zip(price.timestamps, price.utility):
            w.writerow([ts.isoformat(), f"{p:.6f}"])
    print(f"wrote {price_path}")

    with pv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "station_id", "kwh"])
        for ts, row in zip(pv.timestamps, pv.generation):
            for sid, kwh in enumerate(row):
                w.writerow([ts.isoformat(), sid, f"{kwh:.4f}"])
    print(f"wrote {pv_path}")


if __name__ == "__main__":
    main()
