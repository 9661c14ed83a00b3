#!/usr/bin/env python3
"""Run every structure-constant verification suite and print a summary table.

Exits 1 if any suite fails, so this doubles as a quick health check, and 2
on a bad argument (a --samples too large to allocate among them).
"""

import argparse
import sys

from ksunfold import SUITES, run_suite
from ksunfold.symplectic import MAX_SUITE_SEED


def _int_in(lo, hi, what):
    """argparse type: an integer in [lo, hi], else exit 2 saying `what`."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return n
    return parse


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", default=100,
                    type=_int_in(1, float("inf"), "a positive integer"))
    ap.add_argument("--seed", default=0,
                    type=_int_in(0, MAX_SUITE_SEED,
                                 "an integer in [0, 2**64 - 2]"))
    ap.add_argument("--verbose", action="store_true",
                    help="print every table entry, not just suite summaries")
    args = ap.parse_args()

    # every suite first, so that a --samples too large to allocate exits 2
    # before anything is printed
    try:
        reports = {name: run_suite(name, samples=args.samples, seed=args.seed)
                   for name in SUITES}
    except MemoryError as exc:
        ap.error(f"argument --samples: cannot allocate {args.samples} "
                 f"samples: {exc}")

    ok = True
    print(f"{'suite':24s} {'entries':>7} {'brackets':>8} {'gradients':>9} "
          f"{'worst residual':>15}  status")
    print("-" * 77)
    for name, rep in reports.items():
        worst = max(e["max_residual"] for e in rep["entries"])
        status = "pass" if rep["pass"] else "FAIL"
        ok = ok and rep["pass"]
        print(f"{name:24s} {len(rep['entries']):7d} {rep['brackets']:8d} "
              f"{rep['gradient_evals']:9d} {worst:15.3e}  {status}")
        if args.verbose:
            for e in rep["entries"]:
                mark = " " if e["pass"] else "!"
                print(f"  {mark} {e['pair']:28s} {e['max_residual']:.3e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
