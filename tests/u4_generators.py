"""The u(4) generators of the oscillator chart (Y, U), which the package
registers only in their contracted forms h, J_i and Q_i: built here by the
observable algebra, for the tests that check them against SymPy and
contract them into the registered triples.

For the components a, b of (Y1, Y2, Y3, Y0), named by "1230",
L_ab = (Y_a U_b - Y_b U_a) / 2 and Q_ab = (U_a U_b - 2 E Y_a Y_b) / 2, with
E the registry's chart energy at force constant k."""

from dataclasses import replace

import numpy as np

from ksunfold.systems import observables, quadratic_observable

NAMES = "1230"


def _form(aa=0.0, ab=0.0, bb=0.0):
    """Y^T aa Y + Y^T ab U + U^T bb U on s = (Y, U), for symmetric aa, bb."""
    aa, ab, bb = (np.zeros((4, 4)) + m for m in (aa, ab, bb))
    return quadratic_observable(np.block([[2.0 * aa, ab], [ab.T, 2.0 * bb]]))


def u4_generators(k=1.0):
    """{"L_ab": ..., "Q_ab": ...}: the 6 L_ab (a < b) and 10 Q_ab (a <= b)."""
    energy = observables(k)["chart_energy"]
    out = {}
    for a in range(4):
        for b in range(a, 4):
            unit = np.outer(np.eye(4)[a], np.eye(4)[b])
            name = NAMES[a] + NAMES[b]
            if a < b:
                out[f"L_{name}"] = _form(ab=0.5 * (unit - unit.T))
            sym = 0.5 * (unit + unit.T)
            out[f"Q_{name}"] = 0.5 * _form(bb=sym) - energy * _form(aa=sym)
    return {name: replace(obs, name=name) for name, obs in out.items()}
