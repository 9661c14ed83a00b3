"""Symplectic structures, a numeric Poisson-bracket engine, and
structure-constant verification suites.

A structure is its coefficient matrix M(s) in the chart basis, so that
omega(a, b) = a^T M(s) b for tangent vectors a, b.  The bracket engine then
evaluates {f, g}(s) = -grad(f)^T M(s)^{-1} grad(g) using the closed-form
gradients attached to the observables; a bracket table evaluates each
observable's gradient once.  Sign convention (fixed once, here):
for the canonical structure on (Y, U) this yields {Y_a, U_b} = +delta_ab.

All evaluators broadcast over a leading batch axis of states.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DegenerateStructureError
from .sampling import rng_from_seed, sample_chart_states, sample_states3
from .systems import (
    K_H,
    K_J,
    OBSERVABLES,
    Observable,
    S_KS,
    quadratic_observable,
    rescaled_runge_lenz,
)

__all__ = [
    "SymplecticStructure",
    "kepler_structure",
    "chart_structure",
    "canonical_structure",
    "lagrangian_structure",
    "pullback_chart_structure",
    "lagrangian_matrix",
    "lagrangian_matrix_inverse",
    "poisson_bracket",
    "BracketTable",
    "bracket_table",
    "quadratic_from_matrix",
    "quadratic_observable",
    "bracket_matrix",
    "commutant_basis",
    "CommutantBasis",
    "verify_structure_constants",
    "run_suite",
    "SUITES",
    "MAX_SUITE_SEED",
    "EPS_CYCLES",
]

# (i, j, k) with eps_ijk = +1
EPS_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@dataclass(frozen=True)
class SymplecticStructure:
    """Matrix-valued 2-form evaluator.  Exactly one of `matrix` (constant
    structure, inverse precomputed) or `matrix_fn` (state-dependent) is set."""

    name: str
    dim: int
    matrix: Optional[np.ndarray] = None
    matrix_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inv: Optional[np.ndarray] = None
    cond_max: float = 1e12

    @property
    def constant(self) -> bool:
        return self.matrix is not None

    def matrix_at(self, s) -> np.ndarray:
        if self.constant:
            s = np.asarray(s, dtype=float)
            return np.broadcast_to(self.matrix, s.shape[:-1] + (self.dim, self.dim))
        return self.matrix_fn(np.asarray(s, dtype=float))


def canonical_structure(pairs: int, name: str) -> SymplecticStructure:
    """M = [[0, I], [-I, 0]] on R^(2*pairs): the structure with
    {q_a, p_b} = +delta_ab under the engine's sign convention."""
    n = int(pairs)
    eye = np.eye(n)
    M = np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])
    return SymplecticStructure(name=name, dim=2 * n, matrix=M, inv=-M)


def kepler_structure() -> SymplecticStructure:
    """Canonical structure on (x, v) (unit mass)."""
    return canonical_structure(3, "omega_K")


def chart_structure() -> SymplecticStructure:
    """Canonical structure on the oscillator chart (Y, U)."""
    return canonical_structure(4, "omega_tilde")


def lagrangian_matrix(s) -> np.ndarray:
    """Coefficient matrix of the Lagrangian 2-form on (y, u):
    M = [[A, 4R^2 I], [-4R^2 I, 0]] with A = -8 (y u^T - u y^T)."""
    s = np.asarray(s, dtype=float)
    y, u = s[..., :4], s[..., 4:8]
    b = 4.0 * np.sum(y * y, axis=-1)
    A = -8.0 * (y[..., :, None] * u[..., None, :] - u[..., :, None] * y[..., None, :])
    M = np.zeros(s.shape[:-1] + (8, 8))
    M[..., :4, :4] = A
    idx = np.arange(4)
    M[..., idx, idx + 4] = b[..., None]
    M[..., idx + 4, idx] = -b[..., None]
    return M


def lagrangian_matrix_inverse(s) -> np.ndarray:
    """Closed-form inverse of `lagrangian_matrix`:
    M^{-1} = [[0, -I/b], [I/b, A/b^2]], b = 4R^2."""
    s = np.asarray(s, dtype=float)
    y, u = s[..., :4], s[..., 4:8]
    b = 4.0 * np.sum(y * y, axis=-1)
    A = -8.0 * (y[..., :, None] * u[..., None, :] - u[..., :, None] * y[..., None, :])
    W = np.zeros(s.shape[:-1] + (8, 8))
    idx = np.arange(4)
    W[..., idx, idx + 4] = (-1.0 / b)[..., None]
    W[..., idx + 4, idx] = (1.0 / b)[..., None]
    W[..., 4:, 4:] = A / (b * b)[..., None, None]
    return W


def lagrangian_structure(cond_max: float = 1e12) -> SymplecticStructure:
    return SymplecticStructure(
        name="omega_L", dim=8, matrix_fn=lagrangian_matrix, cond_max=cond_max
    )


def pullback_chart_structure(cond_max: float = 1e12) -> SymplecticStructure:
    """The chart structure pulled back to (y, u) coordinates; equals half the
    Lagrangian structure, so its brackets are twice the omega_L brackets."""
    return SymplecticStructure(
        name="pullback_omega_tilde",
        dim=8,
        matrix_fn=lambda s: 0.5 * lagrangian_matrix(s),
        cond_max=cond_max,
    )


def _contract(gf, wg):
    """-sum_i gf_i wg_i, summed in index order: with wg = gg @ inv.T and inv
    a signed permutation this rounds exactly as the three-operand
    einsum("...i,ij,...j->...", gf, inv, gg) does."""
    return -np.add.accumulate(gf * wg, axis=-1)[..., -1]


def _bracket(struct: SymplecticStructure, gf, gg, s):
    """{f, g}(s) from the gradients gf = grad f(s), gg = grad g(s)."""
    if struct.constant:
        return _contract(gf, gg @ struct.inv.T)
    M = struct.matrix_at(s)
    cond = np.linalg.cond(M)
    if np.any(cond > struct.cond_max):
        bad = np.argmax(cond) if cond.ndim else ()
        raise DegenerateStructureError(
            f"{struct.name} condition number {np.max(cond):.3g} exceeds "
            f"{struct.cond_max:.3g}",
            state=s[bad] if cond.ndim else s,
        )
    sol = np.linalg.solve(M, gg[..., None])[..., 0]
    return -np.einsum("...i,...i->...", gf, sol)


def poisson_bracket(struct: SymplecticStructure, f: Observable, g: Observable, s):
    """{f, g}(s) = -grad(f)^T M(s)^{-1} grad(g); broadcasts over batches."""
    s = np.asarray(s, dtype=float)
    return _bracket(struct, f.gradient(s), g.gradient(s), s)


def _table_brackets(struct: SymplecticStructure, pairs, s) -> tuple:
    """{f, g}(s) for every (f, g) in `pairs`, computing each distinct
    observable's gradient once and, for a constant structure, each right
    factor's image gg @ inv.T once.  Returns the list of values and the
    number of gradients computed."""
    grads, images = {}, {}

    def gradient(o):
        if id(o) not in grads:
            grads[id(o)] = o.gradient(s)
        return grads[id(o)]

    values = []
    for f, g in pairs:
        gf = gradient(f)
        if not struct.constant:
            values.append(_bracket(struct, gf, gradient(g), s))
            continue
        if id(g) not in images:
            images[id(g)] = gradient(g) @ struct.inv.T
        values.append(_contract(gf, images[id(g)]))
    return values, len(grads)


# ---------------------------------------------------------------------------
# quadratic observables and the matrix <-> quadratic-form correspondence
# ---------------------------------------------------------------------------

def bracket_matrix(P: np.ndarray, Q: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Coefficient matrix of {f_P, f_Q} for quadratics under a constant
    bivector B = -M^{-1}:  {f_P, f_Q} = f_R with R = P B Q - Q B P."""
    return P @ B @ Q - Q @ B @ P


def quadratic_from_matrix(C: np.ndarray, kappa: float,
                          name: str = "F") -> Observable:
    """Real quadratic observable of an antihermitian matrix C at frequency
    kappa, through z = U + i*kappa*Y:

        F_C = (2*kappa*i)^{-1} zbar^T C z
            = -Y^T A U + (U^T B U + kappa^2 Y^T B Y) / (2*kappa)

    for C = A + iB (A real antisymmetric, B real symmetric).  The map is a
    bracket homomorphism: {F_C, F_D} = F_[C,D] under the chart structure.
    """
    C = np.asarray(C, dtype=complex)
    if C.shape != (4, 4):
        raise ValueError("C must be 4x4")
    if np.max(np.abs(C + C.conj().T)) > 1e-12:
        raise ValueError("C must be antihermitian")
    kappa = float(kappa)
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    A = C.real.copy()
    B = C.imag.copy()

    def fn(s):
        s = np.asarray(s, dtype=float)
        Y, U = s[..., :4], s[..., 4:8]
        t1 = -np.einsum("...i,ij,...j->...", Y, A, U)
        t2 = np.einsum("...i,ij,...j->...", U, B, U)
        t3 = np.einsum("...i,ij,...j->...", Y, B, Y)
        return t1 + (t2 + kappa**2 * t3) / (2.0 * kappa)

    def grad(s):
        s = np.asarray(s, dtype=float)
        Y, U = s[..., :4], s[..., 4:8]
        gY = -(U @ A.T) + kappa * (Y @ B.T)
        gU = (Y @ A.T) + (U @ B.T) / kappa
        return np.concatenate([gY, gU], axis=-1)

    return Observable(name, 8, fn, grad)


# ---------------------------------------------------------------------------
# commutant of the gauge generator inside u(4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutantBasis:
    """Basis M_1..3, D_1..3 of the subalgebra of u(4) commuting with the
    gauge generator N3, plus N3 itself.  `doubled` holds the 2x versions,
    whose entries are exactly 0, +-1, +-i, so all the bracket relations can
    be checked in exact arithmetic."""

    M: tuple
    D: tuple
    N3: np.ndarray
    doubled: dict


def commutant_basis() -> CommutantBasis:
    M = tuple((-0.5 * K).astype(complex) for K in K_J)
    D = tuple(0.5j * S.astype(complex) for S in S_KS)
    N3 = (-2.0 * K_H).astype(complex)
    doubled = {}
    for i in range(3):
        doubled[f"2M{i + 1}"] = (-K_J[i]).astype(complex)
        doubled[f"2D{i + 1}"] = 1j * S_KS[i].astype(complex)
    doubled["N3"] = N3.copy()
    return CommutantBasis(M=M, D=D, N3=N3, doubled=doubled)


# ---------------------------------------------------------------------------
# structure-constant verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BracketTable:
    """All pairwise brackets of a list of observables at sampled states.
    values[i, j, n] = {f_i, f_j}(s_n); antisymmetric with zero diagonal."""

    observables: tuple
    states: np.ndarray
    values: np.ndarray

    def antisymmetry_residual(self) -> float:
        return float(np.max(np.abs(self.values + np.swapaxes(self.values, 0, 1))))


def bracket_table(struct, observables, states) -> BracketTable:
    names = tuple(observables)
    obs = [OBSERVABLES[n] if isinstance(n, str) else n for n in names]
    states = np.asarray(states, dtype=float)
    m = len(obs)
    vals = np.zeros((m, m, states.shape[0]))
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    values, _ = _table_brackets(struct, [(obs[i], obs[j]) for i, j in pairs],
                                states)
    for (i, j), v in zip(pairs, values):
        vals[i, j] = v
    names = tuple(o.name for o in obs)
    return BracketTable(observables=names, states=states, values=vals)


def _rhs_values(rhs, states):
    if rhs is None or (np.isscalar(rhs) and rhs == 0):
        return np.zeros(states.shape[:-1])
    if isinstance(rhs, Observable):
        return rhs.fn(states)
    if callable(rhs):
        return np.asarray(rhs(states), dtype=float)
    return np.full(states.shape[:-1], float(rhs))


def _check_samples(samples) -> int:
    try:
        n = operator.index(samples)
    except TypeError:
        n = 0
    if n <= 0:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    return n


def verify_structure_constants(
    struct: SymplecticStructure,
    observables: Mapping[str, Observable],
    expected: Mapping[tuple, object],
    samples: int = 100,
    seed: int = 0,
    tolerance: float = 1e-9,
    states: Optional[np.ndarray] = None,
) -> dict:
    """Compare {f, g} against the expected right-hand side pointwise at
    sampled states.  Right-hand sides may be 0, scalars, Observables, or
    callables of the state batch (for energy-dependent tables); nothing is
    fitted, so energy dependence cannot be masked.
    """
    samples = _check_samples(samples)
    if states is None:
        if struct.dim == 6:
            states = sample_states3(samples, seed=seed)
        elif struct.dim == 8:
            states = sample_chart_states(samples, seed=seed)
        else:
            raise ValueError("no default sampler for this dimension")
    states = np.asarray(states, dtype=float)
    if states.size == 0:
        raise ValueError(f"states must hold at least one state, got shape "
                         f"{states.shape}")
    n = states.shape[0]
    lhs, gradient_evals = _table_brackets(
        struct, [(observables[f], observables[g]) for f, g in expected], states)
    entries = []
    for ((fname, gname), rhs), value in zip(expected.items(), lhs):
        resid = float(np.max(np.abs(value - _rhs_values(rhs, states))))
        entries.append({
            "pair": f"{{{fname},{gname}}}",
            "samples": n,
            "max_residual": resid,
            "tolerance": tolerance,
            "pass": bool(resid <= tolerance),
        })
    return {
        "samples": n,
        "seed": seed,
        "entries": entries,
        "pass": all(e["pass"] for e in entries),
        "brackets": len(entries),
        "gradient_evals": gradient_evals,
    }


def _eps_table(names_a, names_b, names_out, scale=None):
    """Pairs {a_i, b_j} = eps_ijk * scale * out_k for the three cyclic index
    triples, plus {a_i, b_i} = 0 when a and b are distinct families."""
    outs = [OBSERVABLES[n] if scale is None else scale * OBSERVABLES[n]
            for n in names_out]
    table = {(names_a[i], names_b[j]): outs[k] for i, j, k in EPS_CYCLES}
    if names_a != names_b:
        # mixed-family tables also pin the diagonal {a_i, b_i} = 0
        for i in range(3):
            table[(names_a[i], names_b[i])] = 0
        # and the anticyclic pairs, which -eps sends to -out
        for i, j, k in EPS_CYCLES:
            table[(names_a[j], names_b[i])] = -outs[k]
    return table


def kepler_expected() -> dict:
    """Bracket table of the Kepler constants under the canonical structure:
    {L,L} = eps L, {L,A} = eps A, {A,A} = -2E eps L, everything commutes
    with the energy."""
    L = ("L1", "L2", "L3")
    A = ("A1", "A2", "A3")
    table = {}
    table.update(_eps_table(L, L, L))
    table.update(_eps_table(L, A, A))
    table.update(_eps_table(A, A, L, scale=-2 * OBSERVABLES["kepler_energy"]))
    for n in L + A:
        table[("kepler_energy", n)] = 0
    return table


def chart_jq_expected() -> dict:
    """Same table shape upstairs: {J,J} = eps J, {J,Q} = eps Q,
    {Q,Q} = -2E eps J with the chart energy, and everything commutes with
    the energy."""
    J = ("J1", "J2", "J3")
    Q = ("Q1", "Q2", "Q3")
    table = {}
    table.update(_eps_table(J, J, J))
    table.update(_eps_table(J, Q, Q))
    table.update(_eps_table(Q, Q, J, scale=-2 * OBSERVABLES["chart_energy"]))
    for n in J + Q:
        table[("chart_energy", n)] = 0
    return table


def reduction_expected() -> dict:
    """{f, h} = 0 for every f in the J/Q family and for the energy: the
    criterion for a constant to descend through the gauge reduction."""
    return {(n, "h"): 0 for n in
            ("J1", "J2", "J3", "Q1", "Q2", "Q3", "chart_energy")}


def rescaled_expected(sign: int) -> tuple:
    """Observables and table for the rescaled family Qhat = Q/sqrt(-2E)
    (sign=-1, so(4): {Qhat,Qhat} = +eps J) or Q/sqrt(2E) (sign=+1, o(3,1):
    {Qhat,Qhat} = -eps J)."""
    J = ("J1", "J2", "J3")
    Qh = ("Qhat1", "Qhat2", "Qhat3")
    obs = {n: OBSERVABLES[n] for n in J}
    for i in range(3):
        obs[f"Qhat{i + 1}"] = rescaled_runge_lenz(i, sign)
    table = {}
    for i, j, k in EPS_CYCLES:
        table[(J[i], J[j])] = OBSERVABLES[J[k]]
        table[(J[i], Qh[j])] = obs[Qh[k]]
        table[(Qh[i], Qh[j])] = obs[J[k]] if sign < 0 else -obs[J[k]]
    return obs, table


SUITES = (
    "kepler-algebra",
    "oscillator-u4",
    "oscillator-jq",
    "commutant-su2xsu2",
    "reduction-criterion",
    "rescaled-so4",
)


def _commutator(X, Y):
    return X @ Y - Y @ X


def _suite_commutant() -> dict:
    """Exact integer checks on the doubled basis: with m = 2M, d = 2D the
    displayed relations read [m_i, m_j] = 2 eps m_k, [d_i, d_j] = 2 eps m_k,
    [m_i, d_j] = 2 eps d_k, and a_i = (m_i+d_i)/2, b_i = (m_i-d_i)/2 give
    commuting su(2) factors."""
    basis = commutant_basis()
    m = [basis.doubled[f"2M{i + 1}"] for i in range(3)]
    d = [basis.doubled[f"2D{i + 1}"] for i in range(3)]
    n3 = basis.doubled["N3"]
    # halved twice: A_i = (M_i + D_i)/2 = (m_i + d_i)/4 in the doubled basis
    a = [(m[i] + d[i]) / 4.0 for i in range(3)]
    b = [(m[i] - d[i]) / 4.0 for i in range(3)]
    checks = []
    for i, j, k in EPS_CYCLES:
        checks.append((f"[M{i+1},M{j+1}]-M{k+1}",
                       _commutator(m[i], m[j]) - 2.0 * m[k]))
        checks.append((f"[D{i+1},D{j+1}]-M{k+1}",
                       _commutator(d[i], d[j]) - 2.0 * m[k]))
        checks.append((f"[M{i+1},D{j+1}]-D{k+1}",
                       _commutator(m[i], d[j]) - 2.0 * d[k]))
    for i in range(3):
        checks.append((f"[N3,M{i+1}]", _commutator(n3, m[i])))
        checks.append((f"[N3,D{i+1}]", _commutator(n3, d[i])))
    for i in range(3):
        for j in range(3):
            checks.append((f"[A{i+1},B{j+1}]", _commutator(a[i], b[j])))
    for i, j, k in EPS_CYCLES:
        checks.append((f"[A{i+1},A{j+1}]-A{k+1}", _commutator(a[i], a[j]) - a[k]))
        checks.append((f"[B{i+1},B{j+1}]-B{k+1}", _commutator(b[i], b[j]) - b[k]))
    entries = [{
        "pair": name,
        "samples": 1,
        "max_residual": float(np.max(np.abs(R))),
        "tolerance": 0.0,
        "pass": bool(np.max(np.abs(R)) <= 0.0),
    } for name, R in checks]
    return {"samples": 1, "seed": 0, "entries": entries,
            "pass": all(e["pass"] for e in entries),
            "brackets": 0, "gradient_evals": 0}


def _suite_u4(samples: int, seed: int, tolerance: float = 1e-10,
              kappa: float = 1.3, n_matrices: int = 8) -> dict:
    """Bracket-homomorphism check: {F_C, F_D} = F_[C,D] for random
    antihermitian C, D at a fixed frequency."""
    rng = rng_from_seed(seed)
    states = sample_chart_states(samples, seed=seed + 1)
    struct = chart_structure()
    entries = []
    for idx in range(n_matrices):
        raw = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        C, D = (0.5 * (r - r.conj().T) for r in raw)
        FC = quadratic_from_matrix(C, kappa, name=f"F_C{idx}")
        FD = quadratic_from_matrix(D, kappa, name=f"F_D{idx}")
        FCD = quadratic_from_matrix(_commutator(C, D), kappa)
        lhs = poisson_bracket(struct, FC, FD, states)
        resid = float(np.max(np.abs(lhs - FCD.fn(states))))
        entries.append({
            "pair": f"{{F_C{idx},F_D{idx}}}",
            "samples": samples,
            "max_residual": resid,
            "tolerance": tolerance,
            "pass": bool(resid <= tolerance),
        })
    return {"samples": samples, "seed": seed, "entries": entries,
            "pass": all(e["pass"] for e in entries),
            "brackets": n_matrices, "gradient_evals": 2 * n_matrices}


# largest suite seed: the suites seed Philox with seed and seed + 1, and
# Philox takes an unsigned 64-bit key
MAX_SUITE_SEED = 2**64 - 2


def run_suite(name: str, samples: int = 100, seed: int = 0) -> dict:
    """Run a named verification suite; returns the JSON-ready report."""
    if not 0 <= seed <= MAX_SUITE_SEED:
        raise ValueError(f"seed must be in [0, 2**64 - 2], got {seed}")
    samples = _check_samples(samples)
    if name == "kepler-algebra":
        report = verify_structure_constants(
            kepler_structure(), OBSERVABLES, kepler_expected(),
            samples=samples, seed=seed, tolerance=1e-9,
        )
    elif name == "oscillator-jq":
        report = verify_structure_constants(
            chart_structure(), OBSERVABLES, chart_jq_expected(),
            samples=samples, seed=seed, tolerance=1e-9,
        )
    elif name == "reduction-criterion":
        report = verify_structure_constants(
            chart_structure(), OBSERVABLES, reduction_expected(),
            samples=samples, seed=seed, tolerance=1e-10,
        )
    elif name == "rescaled-so4":
        obs_n, table_n = rescaled_expected(-1)
        report = verify_structure_constants(
            chart_structure(), obs_n, table_n,
            samples=samples, seed=seed, tolerance=1e-8,
            states=sample_chart_states(samples, seed=seed, energy_sign=-1),
        )
        obs_p, table_p = rescaled_expected(+1)
        scatter = verify_structure_constants(
            chart_structure(), obs_p, table_p,
            samples=samples, seed=seed + 1, tolerance=1e-8,
            states=sample_chart_states(samples, seed=seed + 1, energy_sign=+1),
        )
        for e in scatter["entries"]:
            e["pair"] = "E>0:" + e["pair"]
        report["entries"] += scatter["entries"]
        report["pass"] = report["pass"] and scatter["pass"]
        report["brackets"] += scatter["brackets"]
        report["gradient_evals"] += scatter["gradient_evals"]
    elif name == "oscillator-u4":
        report = _suite_u4(samples, seed)
    elif name == "commutant-su2xsu2":
        report = _suite_commutant()
    else:
        raise KeyError(f"unknown suite {name!r}")
    report["suite"] = name
    return report
