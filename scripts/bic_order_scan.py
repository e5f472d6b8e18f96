#!/usr/bin/env python3
"""Scan BIC-optimal VAR orders across a cohort.

Reports the per-subject argmin order and the cohort average, which is how
the fixed extraction order (default 5) should be chosen for a new dataset.
Each recording is z-scored per channel first, as extract fits it.

    python3 scripts/bic_order_scan.py --manifest data/manifest.csv --max-order 10
"""

import argparse
from pathlib import Path

import numpy as np

from eegconn.eeg_io import VALID_FORMATS, load_manifest, load_recording, standardize
from eegconn.var_model import bic_order_select


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--max-order", type=int, default=10)
    parser.add_argument("--format", default="csv_matrix", choices=VALID_FORMATS)
    parser.add_argument("--channels", type=int, default=None)
    parser.add_argument("--rate", type=float, default=128.0)
    args = parser.parse_args()

    manifest = load_manifest(args.manifest)
    base = Path(args.manifest).parent
    orders = []
    for entry in manifest.entries:
        rec = load_recording(base / entry.path, args.format, channels=args.channels,
                             rate=args.rate, subject_id=entry.subject_id)
        best, _ = bic_order_select(standardize(rec), args.max_order)
        orders.append(best)
        print(f"{entry.subject_id}: L_opt = {best}")
    print(f"cohort average L_opt = {np.mean(orders):.2f} "
          f"(median {np.median(orders):.0f}, n = {len(orders)})")


if __name__ == "__main__":
    main()
