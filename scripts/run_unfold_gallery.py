#!/usr/bin/env python3
"""Unfold a small gallery of Kepler orbits and write CSV + JSON for each.

Covers the three qualitative regimes: a circular orbit, an eccentric bound
orbit, and a radial collision orbit that only the unfolded flow can cross.
"""

import argparse
import os

import numpy as np

from ksunfold import unfold_kepler
from ksunfold.output import write_json

GALLERY = {
    # name: (x0, v0, tau_end)
    "circular": ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2 * np.pi),
    "eccentric": ([1.0, 0.0, 0.0], [0.0, 0.8, 0.0], 4 * np.pi),
    "collision": ([1.0, 0.0, 0.0], [-0.5, 0.0, 0.0], 6.0),
}


def _positive_int(text):
    """argparse type: a positive integer, else exit 2."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return n


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/gallery")
    ap.add_argument("--samples", type=_positive_int, default=512)
    args = ap.parse_args()

    # every orbit first, so that a --samples too large to allocate exits 2
    # before anything is written
    try:
        results = {name: unfold_kepler(np.array(x0 + v0), tau_end,
                                       n_samples=args.samples)
                   for name, (x0, v0, tau_end) in GALLERY.items()}
    except MemoryError as exc:
        ap.error(f"argument --samples: cannot allocate {args.samples} "
                 f"samples: {exc}")

    os.makedirs(args.out_dir, exist_ok=True)
    for name, res in results.items():
        csv_path = os.path.join(args.out_dir, f"{name}.csv")
        res.to_csv(csv_path)
        side = res.sidecar()
        write_json(os.path.join(args.out_dir, f"{name}.json"), side)
        div = side["divergence"]
        tail = (
            f"max divergence {div['max_position_divergence']:.3e}"
            if div.get("compared") and "max_position_divergence" in div
            else "no comparison"
        )
        flag = " [collision regularized]" if res.collision else ""
        print(f"{name:10s} E={res.E:+.4f}  t_end={res.ts[-1]:.4f}  {tail}{flag}")
        print(f"           -> {csv_path}")


if __name__ == "__main__":
    main()
