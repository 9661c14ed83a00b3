"""Symplectic structures, a numeric Poisson-bracket engine, and
structure-constant verification suites.

A structure is its Poisson bivector W(s) = M(s)^{-1}, M(s) the coefficient
matrix of the 2-form in the chart basis: omega(a, b) = a^T M(s) b.  W is a
constant array or a closed-form function of the state (the Lagrangian side,
which also gives the closed-form condition number of M(s)).  One kernel
evaluates {f, g}(s) = -grad(f)^T W(s) grad(g) from the observables'
closed-form gradients: a bracket table checks the condition number and
forms W(s) once per batch, takes each observable's gradient and each right
factor's image W grad(g) once, and `verify_structure_constants` each
observable's value once per batch of states.  Sign convention (fixed once,
here): for the canonical structure on (Y, U) this yields
{Y_a, U_b} = +delta_ab.

All evaluators broadcast over a leading batch axis of states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .errors import DegenerateStructureError
from .sampling import rng_from_seed, sample_chart_states, sample_states3
from .systems import (
    K_H,
    K_J,
    OBSERVABLES,
    Observable,
    S_KS,
    _finite,
    _positive_count,
    _shared_values,
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
    "lagrangian_matrix_inverse",
    "poisson_bracket",
    "quadratic_from_matrix",
    "quadratic_observable",
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

# the largest condition number of M(s) at which a bracket is evaluated
_COND_MAX = 1e12


@dataclass(frozen=True)
class SymplecticStructure:
    """A structure as the bracket engine reads it: its bivector `inv` =
    M^{-1}, a constant (dim, dim) array or a function of a batch of states,
    and for a state-dependent one `cond`, the 2-norm condition number of
    M(s) at each state."""

    name: str
    dim: int
    inv: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]
    cond: Optional[Callable[[np.ndarray], np.ndarray]] = None


def canonical_structure(pairs: int, name: str) -> SymplecticStructure:
    """M = [[0, I], [-I, 0]] on R^(2*pairs): the structure with
    {q_a, p_b} = +delta_ab under the engine's sign convention."""
    n = int(pairs)
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:], M[n:, :n] = np.eye(n), -np.eye(n)
    return SymplecticStructure(name=name, dim=2 * n, inv=-M)


def kepler_structure() -> SymplecticStructure:
    """Canonical structure on (x, v) (unit mass)."""
    return canonical_structure(3, "omega_K")


def chart_structure() -> SymplecticStructure:
    """Canonical structure on the oscillator chart (Y, U)."""
    return canonical_structure(4, "omega_tilde")


def lagrangian_matrix_inverse(s) -> np.ndarray:
    """Bivector of the Lagrangian 2-form on (y, u), whose coefficient matrix
    is M = [[A, b I], [-b I, 0]] with b = 4|y|^2, A = -8 (y u^T - u y^T):
    in closed form, M^{-1} = [[0, -I/b], [I/b, A/b^2]]."""
    s = np.asarray(s, dtype=float)
    y, u = s[..., :4], s[..., 4:8]
    b = 4.0 * np.sum(y * y, axis=-1)
    A = -8.0 * (y[..., :, None] * u[..., None, :] - u[..., :, None] * y[..., None, :])
    W = np.zeros(b.shape + (8, 8))
    idx = np.arange(4)
    W[..., idx, idx + 4] = (-1.0 / b)[..., None]
    W[..., idx + 4, idx] = (1.0 / b)[..., None]
    W[..., 4:, 4:] = A / (b * b)[..., None, None]
    return W


def _lagrangian_cond(s) -> np.ndarray:
    """2-norm condition number of the Lagrangian coefficient matrix: with
    b = 4|y|^2 and a = 8|y ^ u| the nonzero singular value of A, it is
    (a^2 + 2b^2 + a sqrt(a^2 + 4b^2)) / (2b^2); inf at y = 0 and NaN at a
    state that is not finite."""
    s = np.asarray(s, dtype=float)
    y, u = s[..., :4], s[..., 4:8]
    yy = np.sum(y * y, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # |y ^ u|^2 summed over the 2x2 minors, not as the Gram determinant
        # |y|^2 |u|^2 - (y.u)^2: that keeps half the digits where u || y
        m = y[..., :, None] * u[..., None, :] - u[..., :, None] * y[..., None, :]
        a = 8.0 * np.sqrt(0.5 * np.sum(m * m, axis=(-2, -1)))
        b2 = 16.0 * yy * yy
        cond = (a * a + 2.0 * b2 + a * np.sqrt(a * a + 4.0 * b2)) / (2.0 * b2)
    return np.where(yy == 0.0, np.inf, cond)


def lagrangian_structure() -> SymplecticStructure:
    return SymplecticStructure(name="omega_L", dim=8,
                               inv=lagrangian_matrix_inverse,
                               cond=_lagrangian_cond)


def pullback_chart_structure() -> SymplecticStructure:
    """The chart structure pulled back to (y, u) coordinates; equals half the
    Lagrangian structure, so its brackets are twice the omega_L brackets."""
    return SymplecticStructure(
        name="pullback_omega_tilde",
        dim=8,
        inv=lambda s: 2.0 * lagrangian_matrix_inverse(s),
        cond=_lagrangian_cond,
    )


def _contract(gf, wg):
    """-sum_i gf_i wg_i, summed in index order: with wg = gg @ inv.T and inv
    a signed permutation this rounds exactly as the three-operand
    einsum("...i,ij,...j->...", gf, inv, gg) does."""
    return -np.add.accumulate(gf * wg, axis=-1)[..., -1]


def poisson_bracket(struct: SymplecticStructure, f: Observable, g: Observable, s):
    """{f, g}(s) = -grad(f)^T W(s) grad(g); broadcasts over batches."""
    s = np.asarray(s, dtype=float)
    return _table_brackets(struct, [(f, g)], s)[0][0]


def _table_brackets(struct: SymplecticStructure, pairs, s) -> tuple:
    """{f, g}(s) for every (f, g) in `pairs`: a state-dependent structure's
    condition number is checked and W(s) formed once, each distinct
    observable's gradient and each right factor's image W gg computed once.
    Returns the list of values and the number of gradients computed."""
    if s.ndim == 0 or s.shape[-1] != struct.dim:
        raise ValueError(f"states must have {struct.dim} coordinates under "
                         f"{struct.name} (dim {struct.dim}), got shape {s.shape}")
    for o in (o for pair in pairs for o in pair):
        if o.dim != struct.dim:
            raise ValueError(f"observable {o.name!r} has dim {o.dim}, but "
                             f"{struct.name} has dim {struct.dim}")
    if struct.cond is None:
        image = lambda gg: gg @ struct.inv.T
    else:
        cond = struct.cond(s)
        if not np.all(cond <= _COND_MAX):  # a NaN fails too
            raise DegenerateStructureError(
                f"{struct.name} condition number {np.max(cond):.3g} exceeds "
                f"{_COND_MAX:.3g}",
                state=s[np.unravel_index(np.argmax(cond), cond.shape)])
        W = struct.inv(s)
        # summed in index order, as `_contract` sums
        image = lambda gg: np.add.accumulate(
            W * gg[..., None, :], axis=-1)[..., -1]
    grads, images = {}, {}

    def gradient(o):
        if id(o) not in grads:
            grads[id(o)] = o.gradient(s)
        return grads[id(o)]

    values = []
    for f, g in pairs:
        gf = gradient(f)
        if id(g) not in images:
            images[id(g)] = image(gradient(g))
        values.append(_contract(gf, images[id(g)]))
    return values, len(grads)


# ---------------------------------------------------------------------------
# quadratic observables and the matrix <-> quadratic-form correspondence
# ---------------------------------------------------------------------------

def quadratic_from_matrix(C: np.ndarray, kappa: float,
                          name: str = "F") -> Observable:
    """Real quadratic observable of an antihermitian matrix C at frequency
    kappa, through z = U + i*kappa*Y:

        F_C = (2*kappa*i)^{-1} zbar^T C z
            = -Y^T A U + (U^T B U + kappa^2 Y^T B Y) / (2*kappa)

    for C = A + iB (A real antisymmetric, B real symmetric): the quadratic
    form of P = [[kappa B, -A], [A, B/kappa]] on s = (Y, U).  The map is a
    bracket homomorphism: {F_C, F_D} = F_[C,D] under the chart structure.
    """
    C = _finite("C", np.asarray(C, dtype=complex))
    if C.shape != (4, 4):
        raise ValueError("C must be 4x4")
    if np.max(np.abs(C + C.conj().T)) > 1e-12:
        raise ValueError("C must be antihermitian")
    kappa = _finite("kappa", float(kappa))
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    A, B = C.real, C.imag
    # by slices: np.block costs more than the quadratic form's own set-up
    P = np.empty((8, 8))
    P[:4, :4], P[:4, 4:] = kappa * B, -A
    P[4:, :4], P[4:, 4:] = A, B / kappa
    return quadratic_observable(P, name)


# ---------------------------------------------------------------------------
# commutant of the gauge generator inside u(4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutantBasis:
    """Basis M_1..3, D_1..3 of the subalgebra of u(4) commuting with the
    gauge generator N3, plus N3 itself.  The entries of 2M_i, 2D_i and N3
    are exactly 0, +-1, +-i, so all the bracket relations can be checked in
    exact arithmetic."""

    M: tuple
    D: tuple
    N3: np.ndarray


def commutant_basis() -> CommutantBasis:
    M = tuple((-0.5 * K).astype(complex) for K in K_J)
    D = tuple(0.5j * S.astype(complex) for S in S_KS)
    N3 = (-2.0 * K_H).astype(complex)
    return CommutantBasis(M=M, D=D, N3=N3)


# ---------------------------------------------------------------------------
# structure-constant verification
# ---------------------------------------------------------------------------

def _rhs_values(rhs, states):
    """A table's right-hand side, 0 or an Observable, at the states."""
    if isinstance(rhs, Observable):
        return rhs.fn(states)
    if rhs != 0:
        raise TypeError(f"a right-hand side is 0 or an Observable, got {rhs!r}")
    return np.zeros(states.shape[:-1])


def _entry(pair: str, samples: int, residual: float, tolerance: float) -> dict:
    return {"pair": pair, "samples": samples, "max_residual": residual,
            "tolerance": tolerance, "pass": bool(residual <= tolerance)}


def _report(samples, seed, entries, brackets, gradient_evals) -> dict:
    return {"samples": samples, "seed": seed, "entries": entries,
            "pass": all(e["pass"] for e in entries), "brackets": brackets,
            "gradient_evals": gradient_evals}


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
    sampled states.  Right-hand sides are 0 or Observables (energy-dependent
    ones included); nothing is fitted, so energy dependence cannot be
    masked.
    """
    samples = _positive_count("samples", samples)
    if states is None:
        if struct.dim == 6:
            states = sample_states3(samples, seed=seed)
        elif struct.dim == 8:
            states = sample_chart_states(samples, seed=seed)
        else:
            raise ValueError("no default sampler for this dimension")
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] == 0:
        raise ValueError(f"states must be an (n, {struct.dim}) batch of at "
                         f"least one state, got shape {states.shape}")
    n = states.shape[0]
    # a read-only view, so nothing inside the scope changes the shared batch
    states = states.view()
    states.flags.writeable = False
    with _shared_values(states):
        lhs, gradient_evals = _table_brackets(
            struct, [(observables[f], observables[g]) for f, g in expected],
            states)
        entries = [
            _entry(f"{{{fname},{gname}}}", n,
                   float(np.max(np.abs(value - _rhs_values(rhs, states)))),
                   tolerance)
            for ((fname, gname), rhs), value in zip(expected.items(), lhs)]
    return _report(n, seed, entries, len(entries), gradient_evals)


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


def _algebra_expected(L, A, energy) -> dict:
    """{L,L} = eps L, {L,A} = eps A, {A,A} = -2E eps L, and everything
    commutes with the energy E."""
    return {**_eps_table(L, L, L), **_eps_table(L, A, A),
            **_eps_table(A, A, L, scale=-2 * OBSERVABLES[energy]),
            **{(energy, n): 0 for n in L + A}}


def kepler_expected() -> dict:
    """Bracket table of the Kepler constants under the canonical structure."""
    return _algebra_expected(("L1", "L2", "L3"), ("A1", "A2", "A3"),
                             "kepler_energy")


def chart_jq_expected() -> dict:
    """Same table shape upstairs, in J, Q and the chart energy."""
    return _algebra_expected(("J1", "J2", "J3"), ("Q1", "Q2", "Q3"),
                             "chart_energy")


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


def _commutator(X, Y):
    return X @ Y - Y @ X


def _suite_commutant() -> dict:
    """Exact integer checks on the doubled basis: with m = 2M, d = 2D the
    displayed relations read [m_i, m_j] = 2 eps m_k, [d_i, d_j] = 2 eps m_k,
    [m_i, d_j] = 2 eps d_k, and a_i = (m_i+d_i)/2, b_i = (m_i-d_i)/2 give
    commuting su(2) factors."""
    basis = commutant_basis()
    # doubling is exact
    m = [2.0 * M for M in basis.M]
    d = [2.0 * D for D in basis.D]
    n3 = basis.N3
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
    entries = [_entry(name, 1, float(np.max(np.abs(R))), 0.0)
               for name, R in checks]
    return _report(1, 0, entries, 0, 0)


def _suite_u4(samples: int, seed: int) -> dict:
    """Bracket-homomorphism check: {F_C, F_D} = F_[C,D] for random
    antihermitian C, D at a fixed frequency."""
    kappa, n_matrices = 1.3, 8
    rng = rng_from_seed(seed)
    observables, expected = {}, {}
    for idx in range(n_matrices):
        raw = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        C, D = (0.5 * (r - r.conj().T) for r in raw)
        fc, fd = f"F_C{idx}", f"F_D{idx}"
        observables[fc] = quadratic_from_matrix(C, kappa, name=fc)
        observables[fd] = quadratic_from_matrix(D, kappa, name=fd)
        expected[(fc, fd)] = quadratic_from_matrix(_commutator(C, D), kappa)
    return verify_structure_constants(
        chart_structure(), observables, expected, samples=samples, seed=seed,
        tolerance=1e-10, states=sample_chart_states(samples, seed=seed + 1))


def _suite_rescaled(samples: int, seed: int) -> dict:
    """so(4) brackets of the rescaled family at E < 0, then o(3,1) ones at
    E > 0 (entries tagged 'E>0:') from seed + 1."""
    entries, brackets, gradient_evals = [], 0, 0
    for part_seed, sign, tag in ((seed, -1, ""), (seed + 1, +1, "E>0:")):
        obs, table = rescaled_expected(sign)
        part = verify_structure_constants(
            chart_structure(), obs, table, samples=samples, seed=part_seed,
            tolerance=1e-8, states=sample_chart_states(
                samples, seed=part_seed, energy_sign=sign),
        )
        entries += [{**e, "pair": tag + e["pair"]} for e in part["entries"]]
        brackets += part["brackets"]
        gradient_evals += part["gradient_evals"]
    return _report(samples, seed, entries, brackets, gradient_evals)


def _table_suite(make_struct, expected, tolerance):
    return lambda samples, seed: verify_structure_constants(
        make_struct(), OBSERVABLES, expected(), samples=samples, seed=seed,
        tolerance=tolerance)


# every suite by name: runner(samples, seed) -> report
_RUNNERS = {
    "kepler-algebra": _table_suite(kepler_structure, kepler_expected, 1e-9),
    "oscillator-u4": _suite_u4,
    "oscillator-jq": _table_suite(chart_structure, chart_jq_expected, 1e-9),
    "commutant-su2xsu2": lambda samples, seed: _suite_commutant(),
    "reduction-criterion": _table_suite(chart_structure, reduction_expected,
                                        1e-10),
    "rescaled-so4": _suite_rescaled,
}
SUITES = tuple(_RUNNERS)


# largest suite seed: the suites seed Philox with seed and seed + 1, and
# Philox takes an unsigned 64-bit key
MAX_SUITE_SEED = 2**64 - 2


def run_suite(name: str, samples: int = 100, seed: int = 0) -> dict:
    """Run a named verification suite; returns the JSON-ready report."""
    if not 0 <= seed <= MAX_SUITE_SEED:
        raise ValueError(f"seed must be in [0, 2**64 - 2], got {seed}")
    samples = _positive_count("samples", samples)
    if name not in _RUNNERS:
        raise KeyError(f"unknown suite {name!r}")
    return {**_RUNNERS[name](samples, seed), "suite": name}
