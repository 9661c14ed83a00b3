#!/usr/bin/env python3
"""Sweep circular orbits over a range of energies and tabulate the periods.

For each semi-major axis a the orbit is unfolded; the script prints the
upstairs tau-period against 2*pi/sqrt(-2E), the physical time of the half
tau-period against the Kepler period 2*pi*a^(3/2), and the double-cover
ratio t(full)/t(half) which should be exactly 2.
"""

import argparse
import math

import numpy as np

from ksunfold import KSUnfoldError, kepler_period_from_unfold, unfold_kepler


def _semi_major_axis(text):
    """argparse type: a finite positive number, else exit 2."""
    try:
        a = float(text)
    except ValueError:
        a = math.nan
    if not 0.0 < a < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}")
    return a


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=_semi_major_axis, nargs="+",
                    default=[0.5, 1.0, 2.0, 4.0, 8.0])
    args = ap.parse_args()

    # every orbit first, so that an --a the unfold cannot represent exits 2
    # before anything is printed
    rows = []
    for a in args.a:
        E = -0.5 / a
        p0 = np.array([a, 0.0, 0.0, 0.0, 1.0 / np.sqrt(a), 0.0])
        tau_ref = 2 * np.pi / np.sqrt(-2 * E)
        try:
            res = unfold_kepler(p0, 2.2 * tau_ref, compare=False)
            per = kepler_period_from_unfold(res)
        except (ValueError, KSUnfoldError) as exc:
            ap.error(f"argument --a: cannot unfold the orbit of a = {a:g}: "
                     f"{exc}")
        rows.append((a, E, per, tau_ref))

    hdr = (f"{'a':>6} {'E':>9} {'tau_period':>13} {'2pi/sqrt(-2E)':>14} "
           f"{'t_half':>13} {'2pi a^1.5':>13} {'t_full/t_half':>14}")
    print(hdr)
    print("-" * len(hdr))
    for a, E, per, tau_ref in rows:
        T = 2 * np.pi * a**1.5
        print(f"{a:6.2f} {E:9.4f} {per['tau_period']:13.8f} {tau_ref:14.8f} "
              f"{per['t_half']:13.6f} {T:13.6f} "
              f"{per['t_full'] / per['t_half']:14.10f}")


if __name__ == "__main__":
    main()
