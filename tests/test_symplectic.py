"""Bracket engine, structure matrices, u(4) correspondence, verification suites."""

import contextlib
import functools
import json
import operator

import numpy as np
import pytest

from ksunfold import symplectic, systems
from ksunfold import (
    DegenerateStructureError,
    OBSERVABLES,
    Observable,
    SUITES,
    chart_structure,
    commutant_basis,
    conformal_kepler_field,
    kepler_structure,
    lagrangian_structure,
    poisson_bracket,
    pullback_chart_structure,
    quadratic_from_matrix,
    run_suite,
    verify_structure_constants,
)
from ksunfold.symplectic import (
    _COND_MAX,
    EPS_CYCLES,
    SymplecticStructure,
    _rhs_values,
    _suite_commutant,
    _table_brackets,
    canonical_structure,
    chart_jq_expected,
    kepler_expected,
    lagrangian_matrix_inverse,
    quadratic_observable,
    reduction_expected,
    rescaled_expected,
)
from ksunfold.sampling import rng_from_seed, sample_chart_states, sample_states3
from ksunfold.systems import _shared_values


def lagrangian_matrix(s):
    """Coefficient matrix of the Lagrangian 2-form on (y, u):
    M = [[A, b I], [-b I, 0]] with b = 4|y|^2, A = -8 (y u^T - u y^T); the
    engine reads only its closed-form inverse."""
    s = np.asarray(s, dtype=float)
    y, u = s[..., :4], s[..., 4:8]
    b = 4.0 * np.sum(y * y, axis=-1)
    M = np.zeros(b.shape + (8, 8))
    M[..., :4, :4] = -8.0 * (y[..., :, None] * u[..., None, :]
                             - u[..., :, None] * y[..., None, :])
    idx = np.arange(4)
    M[..., idx, idx + 4] = b[..., None]
    M[..., idx + 4, idx] = -b[..., None]
    return M


def _coord(i, dim):
    g = np.zeros(dim)
    g[i] = 1.0
    return Observable(f"s{i}", dim, fn=lambda s: s[..., i], grad=lambda s: np.broadcast_to(g, s.shape).copy())


def test_canonical_sign_convention():
    # {Y_a, U_b} = +delta_ab: position first, momentum second
    st = chart_structure()
    s = rng_from_seed(1).normal(size=(10, 8))
    for a in range(4):
        for b in range(4):
            val = poisson_bracket(st, _coord(a, 8), _coord(4 + b, 8), s)
            assert np.allclose(val, 1.0 if a == b else 0.0, atol=1e-14)


def test_bracket_matches_explicit_partial_sum():
    # canonical {f, g} = sum_a (df/dY_a dg/dU_a - df/dU_a dg/dY_a)
    st = chart_structure()
    rng = rng_from_seed(2)
    s = rng.normal(size=(50, 8))
    for f, g in [("J1", "J2"), ("Q1", "chart_energy"), ("h", "Q3")]:
        fo, go = OBSERVABLES[f], OBSERVABLES[g]
        gf, gg = fo.gradient(s), go.gradient(s)
        explicit = np.sum(gf[:, :4] * gg[:, 4:] - gf[:, 4:] * gg[:, :4], axis=1)
        engine = poisson_bracket(st, fo, go, s)
        assert np.max(np.abs(engine - explicit)) < 1e-13


def test_bracket_antisymmetry_and_self():
    st = kepler_structure()
    s = sample_states3(40, seed=3)
    f, g = OBSERVABLES["L1"], OBSERVABLES["A2"]
    assert np.max(np.abs(
        poisson_bracket(st, f, g, s) + poisson_bracket(st, g, f, s)
    )) < 1e-13
    assert np.max(np.abs(poisson_bracket(st, f, f, s))) < 1e-13


def test_canonical_structure_inverse():
    st = canonical_structure(3, "test")
    M = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
    assert np.allclose(M @ st.inv, np.eye(6))
    assert st.cond is None and st.inv.shape == (6, 6)


def test_lagrangian_matrix_antisymmetric():
    s = sample_chart_states(30, seed=5)
    M = lagrangian_matrix(s)
    assert np.max(np.abs(M + np.swapaxes(M, -1, -2))) < 1e-13


def test_lagrangian_inverse_closed_form():
    # the closed-form inverse against numpy's generic inverse
    s = sample_chart_states(30, seed=7)
    M = lagrangian_matrix(s)
    W = lagrangian_matrix_inverse(s)
    eye = np.broadcast_to(np.eye(8), M.shape)
    assert np.max(np.abs(M @ W - eye)) < 1e-10
    assert np.max(np.abs(W - np.linalg.inv(M))) < 1e-10


def test_conformal_field_is_hamiltonian_for_lagrangian_structure():
    # d/dt f = {f, E} under omega_L along the conformal flow in physical time
    con = conformal_kepler_field()
    st = lagrangian_structure()
    rng = rng_from_seed(11)
    s = rng.normal(size=(40, 8))
    rhs = con.rhs(s)
    for name in ("J1_yu", "Q2_yu", "h_yu", "conformal_energy"):
        f = OBSERVABLES[name]
        dfdt = np.sum(f.gradient(s) * rhs, axis=1)
        br = poisson_bracket(st, f, OBSERVABLES["conformal_energy"], s)
        assert np.max(np.abs(dfdt - br)) < 1e-10, name


def test_pullback_brackets_are_twice_lagrangian_brackets():
    lag = lagrangian_structure()
    pb = pullback_chart_structure()
    s = sample_chart_states(40, seed=13)
    f, g = OBSERVABLES["J1_yu"], OBSERVABLES["J2_yu"]
    assert np.max(np.abs(
        poisson_bracket(pb, f, g, s) - 2.0 * poisson_bracket(lag, f, g, s)
    )) < 1e-12


def test_degenerate_structure_raises():
    # y transverse to u and |y| -> 0: the A block dwarfs the 4R^2 block and
    # the condition number grows like 1/R^4
    st = lagrangian_structure()
    s = np.zeros(8)
    s[0] = 1e-8
    s[5] = 1.0
    with pytest.raises(DegenerateStructureError):
        poisson_bracket(st, OBSERVABLES["J1_yu"], OBSERVABLES["J2_yu"], s)


def test_quadratic_observable_and_bracket_matrix():
    rng = rng_from_seed(17)
    P = rng.normal(size=(8, 8))
    P = P + P.T
    Q = rng.normal(size=(8, 8))
    Q = Q + Q.T
    st = chart_structure()
    B = -np.asarray(st.inv)  # bivector of the engine: {f,g} = grad f . B grad g
    fP, fQ = quadratic_observable(P, "fP"), quadratic_observable(Q, "fQ")
    # {f_P, f_Q} = f_R with R = P B Q - Q B P
    fR = quadratic_observable(P @ B @ Q - Q @ B @ P, "fR")
    s = rng.normal(size=(60, 8))
    assert np.max(np.abs(poisson_bracket(st, fP, fQ, s) - fR(s))) < 1e-11


def test_quadratic_jacobi_identity_fixed_matrices():
    # for quadratics the triple bracket is a matrix polynomial; the cyclic
    # sum vanishes identically, so the composed matrices must cancel
    rng = rng_from_seed(19)
    B = -np.asarray(chart_structure().inv)
    mats = []
    for _ in range(3):
        P = rng.normal(size=(8, 8))
        mats.append(P + P.T)
    P, Q, R = mats

    def br(X, Y):
        return X @ B @ Y - Y @ B @ X

    cyc = br(P, br(Q, R)) + br(Q, br(R, P)) + br(R, br(P, Q))
    assert np.max(np.abs(cyc)) < 1e-12 * max(1.0, np.max(np.abs(P)) ** 3)


def _product(f, g):
    return Observable(
        f"{f.name}*{g.name}", f.dim,
        fn=lambda s: f.fn(s) * g.fn(s),
        grad=lambda s: f.fn(s)[..., None] * g.grad(s) + g.fn(s)[..., None] * f.grad(s),
    )


def _scaled(c, f):
    return Observable(
        f"{c}*{f.name}", f.dim,
        fn=lambda s: c * f.fn(s),
        grad=lambda s: c * f.grad(s),
    )


def test_jacobi_identity_energy_dependent_table():
    # the inner brackets of the J/Q family are known in closed form,
    # including the energy-dependent {Q_i, Q_j} = -2E eps J_k; composing
    # them with one numeric outer bracket must satisfy Jacobi pointwise
    st = chart_structure()
    s = sample_chart_states(50, seed=23)
    J = [OBSERVABLES[f"J{i}"] for i in (1, 2, 3)]
    Q = [OBSERVABLES[f"Q{i}"] for i in (1, 2, 3)]
    E = OBSERVABLES["chart_energy"]

    def inner_QQ(i, j):  # {Q_i, Q_j}
        for a, b, k in EPS_CYCLES:
            if (a, b) == (i, j):
                return _scaled(-2.0, _product(E, J[k]))
            if (b, a) == (i, j):
                return _scaled(+2.0, _product(E, J[k]))
        return _scaled(0.0, J[0])

    def inner_JQ(i, j):  # {J_i, Q_j}
        for a, b, k in EPS_CYCLES:
            if (a, b) == (i, j):
                return Q[k]
            if (b, a) == (i, j):
                return _scaled(-1.0, Q[k])
        return _scaled(0.0, J[0])

    # S(J1, Q1, Q2) = {J1,{Q1,Q2}} + {Q1,{Q2,J1}} + {Q2,{J1,Q1}}
    total = (
        poisson_bracket(st, J[0], inner_QQ(0, 1), s)
        + poisson_bracket(st, Q[0], _scaled(-1.0, inner_JQ(0, 1)), s)
        + poisson_bracket(st, Q[1], inner_JQ(0, 0), s)
    )
    assert np.max(np.abs(total)) < 1e-9

    # S(Q1, Q2, Q3): all three inner brackets energy-dependent
    total = (
        poisson_bracket(st, Q[0], inner_QQ(1, 2), s)
        + poisson_bracket(st, Q[1], inner_QQ(2, 0), s)
        + poisson_bracket(st, Q[2], inner_QQ(0, 1), s)
    )
    assert np.max(np.abs(total)) < 1e-9


def test_quadratic_from_matrix_special_cases():
    kappa = 0.9
    # C = i kappa I reproduces the harmonic oscillator energy at frequency kappa
    F = quadratic_from_matrix(1j * kappa * np.eye(4), kappa)
    s = sample_chart_states(30, seed=29)
    ho = 0.5 * np.sum(s[:, 4:] ** 2, axis=1) + 0.5 * kappa**2 * np.sum(s[:, :4] ** 2, axis=1)
    assert np.max(np.abs(F(s) - ho)) < 1e-12
    # C = N3 reproduces the gauge momentum
    basis = commutant_basis()
    FN = quadratic_from_matrix(basis.N3, kappa)
    assert np.max(np.abs(FN(s) - OBSERVABLES["h"](s))) < 1e-12
    # C = M_i reproduces J_i at any frequency
    for i in range(3):
        FM = quadratic_from_matrix(basis.M[i], kappa)
        assert np.max(np.abs(FM(s) - OBSERVABLES[f"J{i+1}"](s))) < 1e-12


def test_quadratic_from_matrix_D_gives_rescaled_runge_lenz():
    # at frequency kappa = sqrt(-2E), on states of chart energy E,
    # Q_i = kappa * F_{D_i}
    E = -0.4
    kappa = np.sqrt(-2.0 * E)
    s = sample_chart_states(40, seed=31, energy_sign=-1)
    Y, U = s[:, :4], s[:, 4:]
    r2 = np.sum(Y * Y, axis=1)
    target = np.sqrt(2.0 * (E * r2 + 1.0))
    U = U / np.linalg.norm(U, axis=1, keepdims=True) * target[:, None]
    s = np.concatenate([Y, U], axis=1)
    basis = commutant_basis()
    for i in range(3):
        FD = quadratic_from_matrix(basis.D[i], kappa)
        assert np.max(np.abs(kappa * FD(s) - OBSERVABLES[f"Q{i+1}"](s))) < 1e-12


def test_quadratic_from_matrix_validation():
    with pytest.raises(ValueError):
        quadratic_from_matrix(np.eye(4), 1.0)  # hermitian, not anti
    with pytest.raises(ValueError):
        quadratic_from_matrix(1j * np.eye(3), 1.0)  # wrong shape
    with pytest.raises(ValueError):
        quadratic_from_matrix(1j * np.eye(4), -1.0)  # bad frequency


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_quadratic_from_matrix_rejects_non_finite_input(value):
    C = np.zeros((4, 4), dtype=complex)
    C[0, 1], C[1, 0] = value, -value
    with pytest.raises(ValueError, match="^C must be finite"):
        quadratic_from_matrix(C, 1.3)
    with pytest.raises(ValueError, match="^kappa must be finite"):
        quadratic_from_matrix(np.zeros((4, 4)), value)


@pytest.mark.parametrize("kappa", [0.25, 1.0, 1.3, 6.0])
def test_quadratic_from_matrix_equals_block_matrix(kappa):
    # the matrix filled by slices, read through grad(I) = I @ P, against the
    # np.block one, bit for bit
    rng = rng_from_seed(41)
    eye = np.eye(8)
    for _ in range(6):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        C = 0.5 * (raw - raw.conj().T)
        A, B = C.real, C.imag
        block = quadratic_observable(
            np.block([[kappa * B, -A], [A, B / kappa]]))
        F = quadratic_from_matrix(C, kappa)
        assert np.array_equal(_bits(F.grad(eye)), _bits(block.grad(eye)))


def test_quadratic_from_matrix_gradient():
    rng = rng_from_seed(37)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    C = 0.5 * (raw - raw.conj().T)
    F = quadratic_from_matrix(C, 1.7)
    s = rng.normal(size=8)
    g = F.gradient(s)
    eps = 1e-6
    fd = np.array([(F(s + eps * e) - F(s - eps * e)) / (2 * eps) for e in np.eye(8)])
    assert np.max(np.abs(g - fd)) < 1e-7


def test_commutant_basis_doubled_entries_are_exact():
    basis = commutant_basis()
    doubled = {"N3": basis.N3}
    for i in range(3):
        doubled[f"2M{i + 1}"] = 2.0 * basis.M[i]
        doubled[f"2D{i + 1}"] = 2.0 * basis.D[i]
    for key, mat in doubled.items():
        re, im = mat.real, mat.imag
        assert np.all(re == np.round(re)) and np.all(im == np.round(im)), key


def _table(struct, names, s):
    """{(f, g): {f, g}(s)} over the ordered pairs of distinct registered
    observables in `names`, from one bracket table."""
    keys = [(f, g) for f in names for g in names if f != g]
    values, _ = _table_brackets(
        struct, [(OBSERVABLES[f], OBSERVABLES[g]) for f, g in keys], s)
    return dict(zip(keys, values))


def test_bracket_table_antisymmetry():
    s = sample_chart_states(20, seed=41)
    table = _table(chart_structure(), ("J1", "J2", "J3", "h"), s)
    for (f, g), v in table.items():
        assert np.max(np.abs(v + table[g, f])) < 1e-12
    # spot value: {J1, J2} = J3
    j3 = OBSERVABLES["J3"](s)
    assert np.max(np.abs(table["J1", "J2"] - j3)) < 1e-12


def test_verify_rejects_a_right_hand_side_that_is_not_0_or_an_observable():
    with pytest.raises(TypeError, match="right-hand side"):
        verify_structure_constants(kepler_structure(), OBSERVABLES,
                                   {("L1", "L2"): 1.0}, samples=5)


def test_verify_rejects_wrong_tables():
    # {A_i, A_j} without the -2E factor must fail at generic states, and a
    # sign flip must fail too: energy dependence cannot hide in the check
    L = OBSERVABLES
    wrong_flat = {("A1", "A2"): L["L3"]}
    rep = verify_structure_constants(
        kepler_structure(), OBSERVABLES, wrong_flat, samples=50, seed=43
    )
    assert not rep["pass"]
    wrong_sign = {("L1", "L2"): _scaled(-1.0, L["L3"])}
    rep = verify_structure_constants(
        kepler_structure(), OBSERVABLES, wrong_sign, samples=50, seed=43
    )
    assert not rep["pass"]
    # and the correct table passes on the same draw
    rep = verify_structure_constants(
        kepler_structure(), OBSERVABLES, kepler_expected(), samples=50, seed=43
    )
    assert rep["pass"]


def test_report_shape():
    rep = run_suite("reduction-criterion", samples=20, seed=1)
    assert rep["suite"] == "reduction-criterion"
    assert {"pair", "max_residual", "tolerance", "pass"} <= set(rep["entries"][0])
    assert all(e["pass"] for e in rep["entries"])


@pytest.mark.parametrize("suite", SUITES)
def test_all_suites_pass(suite):
    rep = run_suite(suite, samples=100, seed=0)
    worst = max(e["max_residual"] for e in rep["entries"])
    assert rep["pass"], f"{suite}: worst residual {worst:.3e}"


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


# ---------------------------------------------------------------------------
# the per-pair bracket path as it was before tables cached their gradients:
# the oracle for the table kernel
# ---------------------------------------------------------------------------

def _ordered_sum(terms):
    """The terms added left to right, the first one as it is."""
    return functools.reduce(operator.add, terms)


def _oracle_bracket(struct, f, g, s):
    """Both gradients recomputed, three-operand einsum for a constant
    structure; otherwise the condition check and W(s) per pair, and
    gf . (W gg) summed term by term in index order."""
    s = np.asarray(s, dtype=float)
    gf = f.gradient(s)
    gg = g.gradient(s)
    if struct.cond is None:
        return -np.einsum("...i,ij,...j->...", gf, struct.inv, gg)
    cond = struct.cond(s)
    if not np.all(cond <= _COND_MAX):
        bad = np.unravel_index(np.argmax(cond), cond.shape)
        raise DegenerateStructureError(
            f"{struct.name} condition number {np.max(cond):.3g} exceeds "
            f"{_COND_MAX:.3g}", state=s[bad])
    W = struct.inv(s)
    dim = struct.dim
    wg = [_ordered_sum(W[..., i, j] * gg[..., j] for j in range(dim))
          for i in range(dim)]
    return -_ordered_sum(gf[..., i] * wg[i] for i in range(dim))


def _oracle_verify(struct, observables, expected, seed, tolerance, states):
    entries = []
    for (fname, gname), rhs in expected.items():
        lhs = _oracle_bracket(struct, observables[fname], observables[gname],
                              states)
        resid = float(np.max(np.abs(lhs - _rhs_values(rhs, states))))
        entries.append({
            "pair": f"{{{fname},{gname}}}",
            "samples": states.shape[0],
            "max_residual": resid,
            "tolerance": tolerance,
            "pass": bool(resid <= tolerance),
        })
    return {"samples": states.shape[0], "seed": seed, "entries": entries,
            "pass": all(e["pass"] for e in entries)}


def _oracle_u4(samples, seed, tolerance=1e-10, kappa=1.3, n_matrices=8):
    rng = rng_from_seed(seed)
    states = sample_chart_states(samples, seed=seed + 1)
    entries = []
    for idx in range(n_matrices):
        raw = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        C, D = (0.5 * (r - r.conj().T) for r in raw)
        FC = quadratic_from_matrix(C, kappa, name=f"F_C{idx}")
        FD = quadratic_from_matrix(D, kappa, name=f"F_D{idx}")
        FCD = quadratic_from_matrix(C @ D - D @ C, kappa)
        lhs = _oracle_bracket(chart_structure(), FC, FD, states)
        resid = float(np.max(np.abs(lhs - FCD.fn(states))))
        entries.append({
            "pair": f"{{F_C{idx},F_D{idx}}}",
            "samples": samples,
            "max_residual": resid,
            "tolerance": tolerance,
            "pass": bool(resid <= tolerance),
        })
    return {"samples": samples, "seed": seed, "entries": entries,
            "pass": all(e["pass"] for e in entries)}


def _oracle_suite(name, samples, seed):
    """`run_suite` with every bracket taken through `_oracle_bracket`, less
    the `brackets`/`gradient_evals` counts."""
    chart, kepler = chart_structure(), kepler_structure()
    if name == "kepler-algebra":
        report = _oracle_verify(kepler, OBSERVABLES, kepler_expected(), seed,
                                1e-9, sample_states3(samples, seed=seed))
    elif name == "oscillator-jq":
        report = _oracle_verify(chart, OBSERVABLES, chart_jq_expected(), seed,
                                1e-9, sample_chart_states(samples, seed=seed))
    elif name == "reduction-criterion":
        report = _oracle_verify(chart, OBSERVABLES, reduction_expected(), seed,
                                1e-10, sample_chart_states(samples, seed=seed))
    elif name == "rescaled-so4":
        obs, table = rescaled_expected(-1)
        report = _oracle_verify(
            chart, obs, table, seed, 1e-8,
            sample_chart_states(samples, seed=seed, energy_sign=-1))
        obs, table = rescaled_expected(+1)
        scatter = _oracle_verify(
            chart, obs, table, seed + 1, 1e-8,
            sample_chart_states(samples, seed=seed + 1, energy_sign=+1))
        for e in scatter["entries"]:
            e["pair"] = "E>0:" + e["pair"]
        report["entries"] += scatter["entries"]
        report["pass"] = report["pass"] and scatter["pass"]
    elif name == "oscillator-u4":
        report = _oracle_u4(samples, seed)
    else:
        # no bracket is evaluated: its own exact matrix checks are the oracle
        report = _suite_commutant()
        report.pop("brackets")
        report.pop("gradient_evals")
    report["suite"] = name
    return report


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


ORACLE_SEEDS = range(32)


@pytest.mark.parametrize("suite", SUITES)
def test_suite_reports_bit_identical_to_per_pair_oracle(suite):
    # json.dumps writes each float as its shortest round-tripping repr, so
    # equal text means equal bits (the sign of zero included)
    for seed in ORACLE_SEEDS:
        for samples in (1, 7, 200):
            report = run_suite(suite, samples=samples, seed=seed)
            del report["brackets"], report["gradient_evals"]
            oracle = _oracle_suite(suite, samples, seed)
            assert json.dumps(report, sort_keys=True) == \
                json.dumps(oracle, sort_keys=True), (suite, seed, samples)


TABLE_CASES = (
    (chart_structure, ("J1", "J2", "J3", "Q1", "Q2", "Q3", "h",
                       "chart_energy"), sample_chart_states),
    (kepler_structure, ("L1", "L2", "L3", "A1", "A2", "A3", "kepler_energy"),
     sample_states3),
    (lagrangian_structure, ("J1_yu", "J2_yu", "Q2_yu", "h_yu",
                            "conformal_energy"), sample_chart_states),
)


@pytest.mark.parametrize("make, names, sampler", TABLE_CASES)
def test_bracket_table_equals_per_pair_oracle(make, names, sampler):
    struct = make()
    for seed in range(8):
        s = sampler(50, seed=seed)
        for (f, g), value in _table(struct, names, s).items():
            assert np.array_equal(value, _oracle_bracket(
                struct, OBSERVABLES[f], OBSERVABLES[g], s))


@pytest.mark.parametrize("make, names, sampler", TABLE_CASES)
def test_poisson_bracket_bit_equal_on_states_and_batches(make, names, sampler):
    struct = make()
    s = sampler(64, seed=47)
    for f in names:
        for g in names:
            fo, go = OBSERVABLES[f], OBSERVABLES[g]
            batch = poisson_bracket(struct, fo, go, s)
            assert np.array_equal(_bits(batch),
                                  _bits(_oracle_bracket(struct, fo, go, s)))
            for state in s[:3]:
                one = poisson_bracket(struct, fo, go, state)
                ref = _oracle_bracket(struct, fo, go, state)
                assert type(one) is type(ref)
                assert np.array_equal(_bits(one), _bits(ref)), (f, g)


def _degenerate_batch():
    s = sample_chart_states(5, seed=53)
    s[3] = 0.0
    s[3, 0] = 1e-8
    s[3, 5] = 1.0
    return s


def _raised(fn):
    with pytest.raises(DegenerateStructureError) as info:
        fn()
    return str(info.value), info.value.state


def test_state_dependent_structure_still_raises_degenerate():
    st = lagrangian_structure()
    f, g = OBSERVABLES["J1_yu"], OBSERVABLES["J2_yu"]
    s = _degenerate_batch()
    msg, state = _raised(lambda: _oracle_bracket(st, f, g, s))
    for call in (
        lambda: poisson_bracket(st, f, g, s),
        lambda: _table_brackets(st, [(f, g), (g, f)], s),
        lambda: verify_structure_constants(
            st, OBSERVABLES, {("J1_yu", "J2_yu"): 0}, states=s),
    ):
        got_msg, got_state = _raised(call)
        assert got_msg == msg
        assert np.array_equal(got_state, state)
        assert np.array_equal(got_state, s[3])


# the generic route the engine replaced: M(s) of each state-dependent
# structure, its condition number by an SVD per state, and a solve per pair
STRUCTURE_MATRICES = {
    "omega_L": lagrangian_matrix,
    "pullback_omega_tilde": lambda s: 0.5 * lagrangian_matrix(s),
}


def _solve_bracket(struct, f, g, s):
    M = STRUCTURE_MATRICES[struct.name](s)
    sol = np.linalg.solve(M, g.gradient(s)[..., None])[..., 0]
    return -np.einsum("...i,...i->...", f.gradient(s), sol)


def _near_degenerate_states():
    # y = r e_0 transverse to u = e_5: the condition number is about 4/r^2
    s = np.zeros((3, 8))
    s[:, 0], s[:, 5] = (1e-1, 1e-3, 1e-5), 1.0
    return s


def _parallel_states():
    # u = c y, where |y|^2 |u|^2 - (y.u)^2 rounds to either sign of 0
    s = sample_chart_states(60, seed=101)
    s[:, 4:] = rng_from_seed(103).normal(size=(60, 1)) * s[:, :4]
    return s


@pytest.mark.parametrize("make", [lagrangian_structure,
                                  pullback_chart_structure])
def test_closed_form_agrees_with_svd_and_solve(make):
    struct = make()
    eps = np.finfo(float).eps
    names = ("J1_yu", "J2_yu", "Q2_yu", "h_yu", "conformal_energy")
    for s in (sample_chart_states(200, seed=97), _near_degenerate_states(),
              _parallel_states()):
        cond = struct.cond(s)
        svd = np.linalg.cond(STRUCTURE_MATRICES[struct.name](s))
        assert np.all(cond <= _COND_MAX)
        # the SVD's own error grows as eps * cond
        assert np.all(np.abs(cond - svd) <= 64 * eps * cond * cond)
        for f in names:
            for g in names:
                fo, go = OBSERVABLES[f], OBSERVABLES[g]
                assert np.max(np.abs(poisson_bracket(struct, fo, go, s)
                                     - _solve_bracket(struct, fo, go, s))) \
                    <= 1e-12, (f, g)
    s = _degenerate_batch()
    assert struct.cond(s)[3] > _COND_MAX
    assert np.linalg.cond(STRUCTURE_MATRICES[struct.name](s))[3] > _COND_MAX


@pytest.mark.parametrize("make", [lagrangian_structure,
                                  pullback_chart_structure])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("coord", [0, 5])  # a y and a u coordinate
def test_non_finite_state_raises_degenerate(make, value, coord):
    s = sample_chart_states(4, seed=107)
    s[2, coord] = value
    msg, state = _raised(lambda: poisson_bracket(
        make(), OBSERVABLES["J1_yu"], OBSERVABLES["J2_yu"], s))
    assert "condition number nan exceeds" in msg
    assert np.array_equal(state, s[2], equal_nan=True)


@pytest.mark.parametrize("make, width", [
    (lagrangian_structure, 6), (chart_structure, 6), (kepler_structure, 8)])
def test_states_of_the_wrong_width_rejected(make, width):
    struct = make()
    f = OBSERVABLES["J1" if struct.dim == 8 else "L1"]
    for s in (np.ones((5, width)), np.ones(width), np.float64(1.0)):
        with pytest.raises(ValueError, match=rf"^states .*\(dim {struct.dim}\)"):
            poisson_bracket(struct, f, f, s)


def test_observables_of_another_dimension_rejected():
    s = sample_chart_states(5, seed=109)
    L1, J1 = OBSERVABLES["L1"], OBSERVABLES["J1"]
    for pair in ((L1, J1), (J1, L1)):
        with pytest.raises(ValueError, match="^observable 'L1' has dim 6, "
                                             "but omega_tilde has dim 8$"):
            poisson_bracket(chart_structure(), *pair, s)
    with pytest.raises(ValueError, match="^observable 'L1' has dim 6"):
        verify_structure_constants(chart_structure(), OBSERVABLES,
                                   kepler_expected(), samples=5)


@pytest.mark.parametrize("shape", [(8,), (2, 3, 8), ()])
def test_verify_rejects_states_that_are_not_one_batch(shape):
    with pytest.raises(ValueError, match=r"^states must be an \(n, 8\) batch"):
        verify_structure_constants(chart_structure(), OBSERVABLES,
                                   chart_jq_expected(), states=np.ones(shape))


def test_constant_structure_with_general_inverse_agrees_to_roundoff():
    # a constant symplectic matrix whose inverse is dense: the ordered sum
    # runs over the image gg @ inv.T, not the einsum's terms, so only
    # roundoff separates them (bound set from the dtype, 64 ulps of the
    # absolute sum of the terms)
    rng = rng_from_seed(59)
    A = rng.normal(size=(8, 8))
    M = A @ -chart_structure().inv @ A.T
    st = SymplecticStructure("dense", 8, inv=np.linalg.inv(M))
    assert np.count_nonzero(st.inv) == 64
    names = ("J1", "J2", "Q1", "h", "chart_energy")
    s = sample_chart_states(40, seed=61)
    table = _table(st, names, s)
    eps = np.finfo(float).eps
    for f in names:
        for g in names:
            gf, gg = OBSERVABLES[f].gradient(s), OBSERVABLES[g].gradient(s)
            scale = np.einsum("...i,ij,...j->...", np.abs(gf), np.abs(st.inv),
                              np.abs(gg))
            ref = -np.einsum("...i,ij,...j->...", gf, st.inv, gg)
            one = poisson_bracket(st, OBSERVABLES[f], OBSERVABLES[g], s)
            assert np.all(np.abs(one - ref) <= 64 * eps * scale), (f, g)
            if f != g:
                assert np.array_equal(table[f, g], one)


def _counting(obs, counts):
    def grad(s):
        counts[obs.name] = counts.get(obs.name, 0) + 1
        return obs.grad(s)
    return Observable(obs.name, obs.dim, obs.fn, grad)


def test_each_observable_gradient_evaluated_once_per_table():
    counts = {}
    names = ("L1", "L2", "L3", "A1", "A2", "A3", "kepler_energy")
    wrapped = {n: _counting(OBSERVABLES[n], counts) for n in names}
    # an alias: the same observable under a second key is still one
    wrapped["A1_alias"] = wrapped["A1"]
    expected = dict(kepler_expected())
    expected[("A1_alias", "L2")] = OBSERVABLES["A3"]
    rep = verify_structure_constants(kepler_structure(), wrapped, expected,
                                     samples=30, seed=67)
    assert rep["pass"]
    assert counts == {n: 1 for n in names}
    assert rep["brackets"] == len(expected) == 22
    assert rep["gradient_evals"] == 7

    counts.clear()
    s = sample_states3(30, seed=71)
    _, gradient_evals = _table_brackets(
        kepler_structure(),
        [(wrapped[f], wrapped[g]) for f in names for g in names if f != g], s)
    assert counts == {n: 1 for n in names} and gradient_evals == 7


def test_table_cache_tells_apart_observables_sharing_a_name():
    # two different observables named alike must not share a gradient
    st = chart_structure()
    s = sample_chart_states(20, seed=73)
    twin = [Observable("same", 8, OBSERVABLES[n].fn, OBSERVABLES[n].grad)
            for n in ("J1", "J2", "J3")]
    values, gradient_evals = _table_brackets(
        st, [(twin[0], twin[1]), (twin[1], twin[2])], s)
    assert gradient_evals == 3
    assert np.array_equal(values[0], poisson_bracket(st, *twin[:2], s))
    rep = verify_structure_constants(
        st, {"a": twin[0], "b": twin[1]}, {("a", "b"): OBSERVABLES["J3"]},
        samples=20, seed=73)
    assert rep["pass"] and rep["gradient_evals"] == 2


SUITE_COUNTS = {
    "kepler-algebra": (21, 7),
    "oscillator-u4": (8, 16),
    "oscillator-jq": (21, 7),
    "commutant-su2xsu2": (0, 0),
    "reduction-criterion": (7, 8),
    "rescaled-so4": (18, 12),  # 9 + 9 brackets, 6 + 6 gradients
}


@pytest.mark.parametrize("suite", SUITES)
def test_suite_reports_count_brackets_and_gradients(suite):
    rep = run_suite(suite, samples=5, seed=3)
    assert (rep["brackets"], rep["gradient_evals"]) == SUITE_COUNTS[suite]


@pytest.mark.parametrize("samples", [0, -3, 2.5, "7", None, np.float64(4.0),
                                     True])
def test_non_positive_integer_samples_rejected(samples):
    with pytest.raises(ValueError, match="samples"):
        verify_structure_constants(kepler_structure(), OBSERVABLES,
                                   kepler_expected(), samples=samples)
    for suite in SUITES:
        with pytest.raises(ValueError, match="samples"):
            run_suite(suite, samples=samples)


@pytest.mark.parametrize("dim", [6, 8])
def test_empty_state_batch_rejected(dim):
    struct, expected = ((kepler_structure(), kepler_expected()) if dim == 6
                        else (chart_structure(), chart_jq_expected()))
    with pytest.raises(ValueError, match="states"):
        verify_structure_constants(struct, OBSERVABLES, expected,
                                   states=np.empty((0, dim)))


def test_integer_like_samples_accepted():
    rep = run_suite("kepler-algebra", samples=np.int64(3), seed=1)
    assert rep["samples"] == 3 and rep["pass"]


# shared evaluation inside verify_structure_constants


@pytest.mark.parametrize("suite", SUITES)
def test_suite_reports_unchanged_without_shared_values(suite, monkeypatch):
    # every report, counts included, is the same text whether or not the
    # observables' values are shared across the call
    shared = {(seed, samples): run_suite(suite, samples=samples, seed=seed)
              for seed in range(8) for samples in (1, 7, 200)}
    monkeypatch.setattr(symplectic, "_shared_values", contextlib.nullcontext)
    for (seed, samples), report in shared.items():
        assert json.dumps(report, sort_keys=True) == json.dumps(
            run_suite(suite, samples=samples, seed=seed),
            sort_keys=True), (seed, samples)


class _NumpyCalls:
    """Stands in for NumPy inside `systems`, recording the arguments of each
    call to the NumPy function `name`."""

    def __init__(self, name):
        self.name, self.calls = name, []

    def __getattr__(self, attr):
        if attr != self.name:
            return getattr(np, attr)
        return lambda *args: self.calls.append(args) or getattr(np, attr)(*args)


# distinct (quadratic leaf, state batch) pairs of each suite at 200 samples;
# without sharing, rescaled-so4 evaluates its leaves 150 times
SUITE_LEAVES = {
    "kepler-algebra": 6,
    "oscillator-u4": 8,
    "oscillator-jq": 11,
    "commutant-su2xsu2": 0,
    "reduction-criterion": 5,
    "rescaled-so4": 22,
}


@pytest.mark.parametrize("suite", SUITES)
def test_each_quadratic_leaf_evaluated_once_per_state_batch(suite, monkeypatch):
    # a quadratic leaf's evaluation is its only einsum: (state batch, s @ P/2)
    counter = _NumpyCalls("einsum")
    monkeypatch.setattr(systems, "np", counter)
    assert run_suite(suite, samples=200, seed=5)["pass"]
    leaves = [(id(s), sp.tobytes()) for _, s, sp in counter.calls]
    assert len(leaves) == len(set(leaves))
    assert len(leaves) <= SUITE_LEAVES[suite]


def test_rescaled_family_shares_one_energy_rescaling(monkeypatch):
    # per half: the shared 1/sqrt(2 sign E) once, which the three Qhat
    # gradients read too (gradients are not shared, but the rescaling's
    # gradient reads its own shared value); 12 with one rescaling per Qhat_i
    counter = _NumpyCalls("sqrt")
    monkeypatch.setattr(systems, "np", counter)
    assert run_suite("rescaled-so4", samples=200, seed=5)["pass"]
    assert len(counter.calls) == 2


def test_shared_values_are_read_only_and_end_with_the_scope():
    s = sample_chart_states(6, seed=79)
    J1, E = OBSERVABLES["J1"], OBSERVABLES["chart_energy"]
    with _shared_values(s):
        v = J1.fn(s)
        assert J1.fn(s) is v and J1(s) is v
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 1.0
        # an equal array that is not the scope's batch is not shared
        assert J1.fn(s.copy()) is not v
        assert np.array_equal(E.fn(s), E.fn(s.copy()))
    after = J1.fn(s)
    assert after is not v and after.flags.writeable
    assert np.array_equal(after, v)


def test_values_outside_a_scope_follow_changes_to_the_states():
    s = sample_chart_states(6, seed=83)
    E = OBSERVABLES["chart_energy"]
    before = E.fn(s)
    s[:, 4:] *= 2.0
    assert not np.array_equal(E.fn(s), before)
    assert np.array_equal(E.fn(s), E.fn(s.copy()))


def test_verify_leaves_the_callers_states_writeable():
    s = sample_states3(10, seed=89)
    rep = verify_structure_constants(kepler_structure(), OBSERVABLES,
                                     kepler_expected(), states=s)
    assert rep["pass"] and s.flags.writeable
