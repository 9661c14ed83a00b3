"""Every registered observable, and the u(4) generators the tests build
from the registry's chart energy, against a symbolic oracle: values and
gradients from SymPy expressions written out in components, at several force
constants k; and the monitors of the four Kepler-family systems at k != 1."""

import itertools

import numpy as np
import pytest
import sympy as sp

from ksunfold import (
    CONSERVED,
    OBSERVABLES,
    IntegratorConfig,
    Observable,
    completed_oscillator_field,
    conformal_kepler_field,
    calogero_moser_field,
    integrate,
    kepler_field,
    oscillator_invariant,
    quadratic_from_matrix,
    radial_reduced_field,
    reparametrized_field,
)
from ksunfold.sampling import rng_from_seed, sample_chart_states, sample_states3
from ksunfold.systems import observables, rescaled_runge_lenz

import u4_generators

K_VALUES = (0.5, 1.0, 2.0)
N_STATES = 60
k = sp.Symbol("k", positive=True)
X = sp.symbols("x1 x2 x3 v1 v2 v3", real=True)
S = sp.symbols("Y1 Y2 Y3 Y0 U1 U2 U3 U0", real=True)


def _kepler_side():
    x, v = sp.Matrix(X[:3]), sp.Matrix(X[3:])
    r = sp.sqrt(x.dot(x))
    L = x.cross(v)
    A = k * x / r - v.cross(L)
    out = {"kepler_energy": v.dot(v) / 2 - k / r}
    for i in range(3):
        out[f"L{i + 1}"] = L[i]
        out[f"A{i + 1}"] = A[i]
    return out


def _ks(a1, a2, a3, a0):
    """The KS quadratic forms x_i of a 4-vector (a1, a2, a3, a0)."""
    return (2 * (a1 * a3 + a2 * a0), 2 * (a2 * a3 - a1 * a0),
            a1**2 + a2**2 - a3**2 - a0**2)


def _four_side():
    Y1, Y2, Y3, Y0, U1, U2, U3, U0 = S
    Y, U = (Y1, Y2, Y3, Y0), (U1, U2, U3, U0)
    R2 = sum(c**2 for c in Y)
    U2sq = sum(c**2 for c in U)
    J = ((Y1 * U0 - Y0 * U1 + Y3 * U2 - Y2 * U3) / 2,
         (Y1 * U3 - Y3 * U1 + Y2 * U0 - Y0 * U2) / 2,
         (Y1 * U2 - Y2 * U1 + Y0 * U3 - Y3 * U0) / 2)
    w = Y1 * U2 - Y2 * U1 + Y3 * U0 - Y0 * U3
    xY, xU = _ks(*Y), _ks(*U)
    out = {}
    # (y, u) coordinates of the conformal side
    E_conf = 2 * R2 * U2sq - k / R2
    out["conformal_energy"] = E_conf
    out["h_yu"] = 4 * R2 * w
    for i in range(3):
        out[f"J{i + 1}_yu"] = 2 * R2 * J[i]
        out[f"Q{i + 1}_yu"] = R2**2 * xU[i] - E_conf * xY[i] / 2
    # the oscillator chart (Y, U)
    E = (U2sq / 2 - k) / R2
    out["chart_energy"] = E
    out["h"] = 2 * w
    for i in range(3):
        out[f"J{i + 1}"] = J[i]
        out[f"Q{i + 1}"] = xU[i] / 4 - E * xY[i] / 2
    return out, E


def _u4_side():
    """The u(4) generators that `u4_generators` builds."""
    Y, U = S[:4], S[4:]
    out = {}
    for a, b in itertools.combinations_with_replacement(range(4), 2):
        name = u4_generators.NAMES[a] + u4_generators.NAMES[b]
        if a < b:
            out[f"L_{name}"] = (Y[a] * U[b] - Y[b] * U[a]) / 2
        out[f"Q_{name}"] = (U[a] * U[b] - 2 * _CHART_ENERGY * Y[a] * Y[b]) / 2
    return out


_FOUR, _CHART_ENERGY = _four_side()
REGISTERED = {**_kepler_side(), **_FOUR}
EXPRESSIONS = {**REGISTERED, **_u4_side()}


def _oracle(expr, symbols):
    """Value and gradient of expr as one function of (state, k)."""
    grad = [sp.diff(expr, c) for c in symbols]
    fn = sp.lambdify((*symbols, k), [expr, *grad], modules="numpy")

    def evaluate(states, kval):
        cols = [np.broadcast_to(np.asarray(c, dtype=float), states.shape[:1])
                for c in fn(*states.T, kval)]
        return cols[0], np.stack(cols[1:], axis=-1)

    return evaluate


def _states(dim):
    if dim == 6:
        return sample_states3(N_STATES, seed=211)
    return sample_chart_states(N_STATES, seed=211)


def _assert_matches(obs, oracle, states, kval):
    want_fn, want_grad = oracle(states, kval)
    got_fn, got_grad = obs.fn(states), obs.gradient(states)
    assert got_fn.shape == want_fn.shape and got_grad.shape == states.shape
    for got, want in ((got_fn, want_fn), (got_grad, want_grad)):
        rel = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
        assert rel < 1e-12, (obs.name, kval, rel)


def test_every_registered_name_has_an_oracle():
    assert set(observables(1.0)) == set(REGISTERED)
    assert len(REGISTERED) == 23


@pytest.mark.parametrize("kval", K_VALUES)
@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_observable_matches_symbolic_value_and_gradient(name, kval):
    # the registry's observables, and the u(4) generators the tests build
    obs = (observables(kval) if name in REGISTERED
           else u4_generators.u4_generators(kval))[name]
    assert obs.name == name
    symbols = X if obs.dim == 6 else S
    _assert_matches(obs, _oracle(EXPRESSIONS[name], symbols),
                    _states(obs.dim), kval)


@pytest.mark.parametrize("kval", K_VALUES)
@pytest.mark.parametrize("sign", [-1, 1])
def test_rescaled_runge_lenz_matches_symbolic(sign, kval):
    # states on the branch sign*E > 0 at this k
    states = sample_chart_states(10 * N_STATES, seed=223)
    E = observables(kval)["chart_energy"].fn(states)
    states = states[sign * E > 0.05][:N_STATES]
    assert len(states) >= 50
    for i in range(3):
        expr = _FOUR[f"Q{i + 1}"] / sp.sqrt(2 * sign * _CHART_ENERGY)
        _assert_matches(rescaled_runge_lenz(i, sign, kval), _oracle(expr, S),
                        states, kval)


@pytest.mark.parametrize("E", [-0.5, 0.3])
def test_oscillator_invariant_matches_symbolic(E):
    Y, U = sp.Matrix(S[:4]), sp.Matrix(S[4:])
    expr = U.dot(U) / 2 - E * Y.dot(Y)
    _assert_matches(oscillator_invariant(E), _oracle(expr, S),
                    _states(8), 1.0)


# ---------------------------------------------------------------------------
# the radial, Calogero and u(4) observables outside the registry
# ---------------------------------------------------------------------------

R, VR = sp.symbols("r vr", real=True)
Q = sp.symbols("q1 q2 qd1 qd2", real=True)


def _radial_states():
    rng = rng_from_seed(227)
    return np.stack([rng.uniform(0.2, 3.0, N_STATES),
                     rng.normal(size=N_STATES)], axis=-1)


def _calogero_states():
    rng = rng_from_seed(229)
    q1 = rng.normal(size=N_STATES)
    gap = rng.uniform(0.1, 2.0, N_STATES) * rng.choice([-1.0, 1.0], N_STATES)
    return np.stack([q1, q1 + gap, *rng.normal(size=(2, N_STATES))], axis=-1)


@pytest.mark.parametrize("E", [-0.3, 0.4])
def test_radial_l2_matches_symbolic(E):
    expr = R**2 * (2 * E - VR**2)
    _assert_matches(radial_reduced_field(E=E).energy, _oracle(expr, (R, VR)),
                    _radial_states(), 1.0)


@pytest.mark.parametrize("l", [0.5, 1.2])
def test_radial_energy_matches_symbolic(l):
    expr = VR**2 / 2 + l**2 / (2 * R**2)
    obs = radial_reduced_field(l=l, variant="angular").energy
    _assert_matches(obs, _oracle(expr, (R, VR)), _radial_states(), 1.0)


@pytest.mark.parametrize("l", [0.5, 1.2])
def test_calogero_energy_matches_symbolic(l):
    q1, q2, qd1, qd2 = Q
    expr = (qd1**2 + qd2**2) / 2 + l**2 / (q2 - q1)**2
    _assert_matches(calogero_moser_field(l).energy, _oracle(expr, Q),
                    _calogero_states(), 1.0)


@pytest.mark.parametrize("kappa", [0.9, 1.3, 1.7])
def test_quadratic_from_matrix_matches_symbolic(kappa):
    # F_C = (2 kappa i)^{-1} zbar^T C z with z = U + i kappa Y
    rng = rng_from_seed(233)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    C = 0.5 * (raw - raw.conj().T)
    Y, U = sp.Matrix(S[:4]), sp.Matrix(S[4:])
    z = U + sp.I * sp.Float(kappa) * Y
    expr = (z.conjugate().T * sp.Matrix(C) * z)[0] / (2 * sp.Float(kappa) * sp.I)
    _assert_matches(quadratic_from_matrix(C, kappa),
                    _oracle(sp.re(sp.expand(expr)), S), _states(8), 1.0)


def test_observables_are_cached_per_k():
    assert observables(2.0) is observables(2)
    assert observables(2.0) is not observables(1.0)
    assert observables(1.0) is OBSERVABLES


# ---------------------------------------------------------------------------
# the monitors of the Kepler-family systems at every k
# ---------------------------------------------------------------------------

def _chart_state(kval, E):
    """A chart state on the level where the oscillator invariant is k."""
    Y = np.array([0.8, -0.3, 0.4, 0.2])
    U = np.array([0.1, 0.7, -0.2, 0.5])
    U *= np.sqrt(2.0 * (kval + E * (Y @ Y))) / np.linalg.norm(U)
    return np.concatenate([Y, U])


def _systems(kval):
    """(system, initial state, the monitor names it must carry, and the
    CONSERVED entry that lists them)."""
    E = -0.3
    return [
        (kepler_field(k=kval),
         np.array([1.0, 0.0, 0.0, 0.0, 0.8 * np.sqrt(kval), 0.1]),
         CONSERVED["kepler"], "kepler"),
        (conformal_kepler_field(k=kval),
         np.array([0.8, -0.3, 0.4, 0.2, 0.05, 0.2, -0.1, 0.15]),
         ("conformal_energy", "h_yu", "J1_yu", "J2_yu", "J3_yu"), "conformal"),
        (completed_oscillator_field(E, k=kval), _chart_state(kval, E),
         ("oscillator_invariant", "chart_energy", "h"), "reparametrized"),
        (reparametrized_field(k=kval), _chart_state(kval, E),
         ("chart_energy", "h"), "reparametrized"),
    ]


@pytest.mark.parametrize("kval", [0.5, 2.0])
def test_systems_carry_their_full_monitor_sets_at_every_k(kval):
    reg = observables(kval)
    for (system, s0, names, key), (at_one, *_) in zip(_systems(kval),
                                                      _systems(1.0)):
        assert tuple(o.name for o in system.monitors) == names
        assert tuple(o.name for o in at_one.monitors) == names
        assert set(names) - {"oscillator_invariant"} <= set(CONSERVED[key])
        # each registered monitor is the observable at this k
        for o in system.monitors:
            if o.name in reg:
                assert o.fn(s0) == reg[o.name].fn(s0)


@pytest.mark.parametrize("kval", [0.5, 2.0])
def test_monitors_are_conserved_at_every_k(kval):
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    for system, s0, names, _ in _systems(kval):
        traj = integrate(system, s0, 2.0, config=cfg)
        assert tuple(traj.monitors) == names
        for name, values in traj.monitors.items():
            drift = np.max(values) - np.min(values)
            assert drift < 1e-8 * max(1.0, np.max(np.abs(values))), (
                system.name, kval, name, drift)


def test_algebra_keeps_missing_gradients_missing():
    # a composite of an observable without a gradient has none either
    f = Observable("f", 8, lambda s: s[..., 0])
    g = OBSERVABLES["h"]
    s = _states(8)
    for composite in (f + g, g - f, -f, 2 * f, f * g, g * f,
                      f.compose(np.exp, np.exp), f + 1.0):
        assert np.array_equal(composite.fn(s), composite(s))
        with pytest.raises(ValueError, match="no closed-form gradient"):
            composite.gradient(s)


def test_algebra_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="dim 6"):
        OBSERVABLES["h"] + OBSERVABLES["L1"]
