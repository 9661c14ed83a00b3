"""Vector fields and observables: hand values, conservation, cross-identities."""

import numpy as np
import pytest

from ksunfold import (
    CONSERVED,
    DomainError,
    OBSERVABLES,
    calogero_moser_field,
    completed_oscillator_field,
    conformal_kepler_field,
    free3d_field,
    kepler_field,
    ks_lift,
    ks_tangent,
    oscillator_invariant,
    radial_reduced_field,
    reparametrized_field,
    scaling_preset,
    to_oscillator_chart,
)
from ksunfold.systems import (
    K_H,
    K_J,
    S_KS,
    _r2,
    conformal_acceleration,
    observables,
    rescaled_runge_lenz,
)
from ksunfold.sampling import (
    rng_from_seed,
    sample_chart_states,
    sample_states3,
)

import u4_generators


def conformal_acceleration_energy_form(y, u, k=1.0):
    """Same acceleration written through the energy:
    F = (E/(2 R^4)) y - 2 ((u.y)/R^2) u."""
    r2 = _r2(y)
    uy = np.sum(u * y, axis=-1)
    E = 2.0 * r2 * np.sum(u * u, axis=-1) - k / r2
    return (E / (2.0 * r2**2))[..., None] * y - 2.0 * (uy / r2)[..., None] * u


def test_kepler_rhs_hand_value():
    kep = kepler_field()
    s = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.allclose(kep.rhs(s), [0.0, 1.0, 0.0, -1.0, 0.0, 0.0])
    # k scales the acceleration only
    assert np.allclose(kepler_field(k=2.0).rhs(s), [0.0, 1.0, 0.0, -2.0, 0.0, 0.0])


def test_kepler_rhs_rejects_small_radius():
    kep = kepler_field(r_min=1e-3)
    with pytest.raises(DomainError):
        kep.rhs(np.array([1e-4, 0.0, 0.0, 0.0, 0.0, 0.0]))


def test_free3d_rhs():
    s = np.array([1.0, 2.0, 3.0, -0.1, 0.2, 0.5])
    assert np.allclose(free3d_field().rhs(s), [-0.1, 0.2, 0.5, 0.0, 0.0, 0.0])


def test_conformal_acceleration_two_forms_agree():
    # raw |u|^2 form vs the form written through the conformal energy
    rng = rng_from_seed(13)
    y = rng.normal(size=(300, 4))
    u = rng.normal(size=(300, 4))
    a1 = conformal_acceleration(y, u)
    a2 = conformal_acceleration_energy_form(y, u)
    assert np.max(np.abs(a1 - a2)) < 1e-10 * max(1.0, np.max(np.abs(a1)))


def test_conformal_energy_equals_kepler_energy_on_lifts():
    pts = sample_states3(200, seed=17)
    y, u = ks_lift(pts[:, :3], pts[:, 3:])
    E_up = OBSERVABLES["conformal_energy"](np.concatenate([y, u], axis=1))
    E_down = OBSERVABLES["kepler_energy"](pts)
    assert np.max(np.abs(E_up - E_down)) < 1e-12


def test_conformal_rhs_rejects_small_radius():
    con = conformal_kepler_field(R_min=1e-3)
    s = np.zeros(8)
    s[0] = 1e-4
    with pytest.raises(DomainError):
        con.rhs(s)


def _conserved_along(system, states, names, atol):
    rhs = system.rhs(states)
    for name in names:
        o = OBSERVABLES[name]
        dot = np.sum(o.gradient(states) * rhs, axis=-1)
        assert np.max(np.abs(dot)) < atol, f"{name} not conserved: {np.max(np.abs(dot)):.3e}"


def test_kepler_constants_have_zero_derivative_along_flow():
    _conserved_along(kepler_field(), sample_states3(300, seed=21), CONSERVED["kepler"], 1e-11)


def test_conformal_constants_have_zero_derivative_along_flow():
    # holds at arbitrary (y, u), not just on the zero fiber-momentum level
    rng = rng_from_seed(29)
    states = rng.normal(size=(300, 8))
    _conserved_along(conformal_kepler_field(), states, CONSERVED["conformal"], 1e-10)


def test_reparametrized_constants_have_zero_derivative_along_flow():
    states = sample_chart_states(300, seed=37)
    _conserved_along(
        reparametrized_field(), states, CONSERVED["reparametrized"], 1e-10
    )


def test_chart_observables_match_their_geometric_forms():
    # J/Q/h/E evaluated in the oscillator chart agree with the (y, u) versions
    rng = rng_from_seed(43)
    pairs = [("J1_yu", "J1"), ("J2_yu", "J2"), ("J3_yu", "J3"),
             ("Q1_yu", "Q1"), ("Q2_yu", "Q2"), ("Q3_yu", "Q3"),
             ("h_yu", "h"), ("conformal_energy", "chart_energy")]
    for _ in range(100):
        y, u = rng.normal(size=4), 0.5 * rng.normal(size=4)
        s_yu = np.concatenate([y, u])
        Y, U = to_oscillator_chart(y, u)
        s_ch = np.concatenate([Y, U])
        for a, b in pairs:
            va, vb = OBSERVABLES[a](s_yu), OBSERVABLES[b](s_ch)
            assert abs(va - vb) < 1e-10 * max(1.0, abs(va)), (a, b, va, vb)


def test_component_observables_contract_to_triples():
    # J_i = (1/2) sum_ab K_i[a,b] L_ab,  Q_i = (1/2) sum_ab S_i[a,b] Q_ab,
    # h = 4 (L_12 + L_30), with the u(4) generators built by the algebra
    names = u4_generators.NAMES
    gens = u4_generators.u4_generators()
    states = sample_chart_states(100, seed=47)

    def mat_val(prefix, sym):
        M = np.zeros((4, 4, len(states)))
        for a in range(4):
            for b in range(4):
                if sym:
                    key = f"{prefix}_{names[min(a,b)]}{names[max(a,b)]}"
                    M[a, b] = gens[key](states)
                elif a != b:
                    lo, hi = min(a, b), max(a, b)
                    v = gens[f"{prefix}_{names[lo]}{names[hi]}"](states)
                    M[a, b] = v if a == lo else -v
        return M

    L = mat_val("L", sym=False)
    Q = mat_val("Q", sym=True)
    for i in range(3):
        Ji = 0.5 * np.einsum("ab,abn->n", K_J[i], L)
        Qi = 0.5 * np.einsum("ab,abn->n", S_KS[i], Q)
        assert np.max(np.abs(Ji - OBSERVABLES[f"J{i+1}"](states))) < 1e-12
        assert np.max(np.abs(Qi - OBSERVABLES[f"Q{i+1}"](states))) < 1e-12
    h4 = 4.0 * (gens["L_12"](states) + gens["L_30"](states))
    assert np.max(np.abs(h4 - OBSERVABLES["h"](states))) < 1e-12


def test_runge_lenz_hand_value():
    # circular orbit: A = 0;  x=(1,0,0), v=(0,0.8,0): A = (1-v^2, 0, 0)
    circ = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    ecc = np.array([1.0, 0.0, 0.0, 0.0, 0.8, 0.0])
    for i, name in enumerate(("A1", "A2", "A3")):
        assert abs(OBSERVABLES[name](circ)) < 1e-15
    assert np.isclose(OBSERVABLES["A1"](ecc), 1.0 - 0.64)
    assert abs(OBSERVABLES["A2"](ecc)) < 1e-15 and abs(OBSERVABLES["A3"](ecc)) < 1e-15


def test_angular_momentum_hand_value():
    s = np.array([1.0, 0.0, 0.0, 0.0, 0.8, 0.0])
    assert np.isclose(OBSERVABLES["L3"](s), 0.8)
    assert OBSERVABLES["L1"](s) == 0.0 and OBSERVABLES["L2"](s) == 0.0


def test_completed_oscillator_is_defined_at_origin():
    osc = completed_oscillator_field(E=-0.5)
    s = np.zeros(8)
    s[4] = 1.0
    out = osc.rhs(s)  # no domain guard anywhere, including Y = 0
    assert np.allclose(out[:4], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(out[4:], 0.0)


def test_completed_oscillator_linearity():
    osc = completed_oscillator_field(E=-0.7)
    rng = rng_from_seed(53)
    s1, s2 = rng.normal(size=8), rng.normal(size=8)
    assert np.allclose(
        osc.rhs(3.0 * s1 - 2.0 * s2), 3.0 * osc.rhs(s1) - 2.0 * osc.rhs(s2), atol=1e-13
    )


def test_reparametrized_unit_matches_frozen_oscillator_on_its_level_set():
    # where the chart energy equals the frozen E the two fields coincide
    E = -0.4  # small enough that 2(E r^2 + 1) stays positive for |Y| <= 1.5
    states = sample_chart_states(200, seed=59, energy_sign=-1)
    # rescale |U| so the chart energy is exactly E
    Y, U = states[:, :4], states[:, 4:]
    r2 = np.sum(Y * Y, axis=1)
    target = np.sqrt(2.0 * (E * r2 + 1.0))
    U = U / np.linalg.norm(U, axis=1, keepdims=True) * target[:, None]
    states = np.concatenate([Y, U], axis=1)
    d = reparametrized_field().rhs(states) - completed_oscillator_field(E).rhs(states)
    assert np.max(np.abs(d)) < 1e-12


def test_radial_variants_agree_on_matching_level_sets():
    # the fixed-energy and fixed-angular-momentum reductions give the same
    # acceleration when l^2 = r^2 (2E - vr^2)
    rng = rng_from_seed(61)
    for _ in range(50):
        r = rng.uniform(0.3, 3.0)
        E = rng.uniform(0.1, 2.0)
        vr = rng.uniform(-1.0, 1.0) * np.sqrt(2 * E) * 0.9
        l2 = r * r * (2 * E - vr * vr)
        s = np.array([r, vr])
        a_E = radial_reduced_field(E=E, variant="energy").rhs(s)
        a_l = radial_reduced_field(l=np.sqrt(l2), variant="angular").rhs(s)
        assert np.allclose(a_E, a_l, atol=1e-12)


def test_radial_field_guards_and_arguments():
    with pytest.raises(ValueError):
        radial_reduced_field(variant="energy")
    with pytest.raises(ValueError):
        radial_reduced_field(variant="angular")
    with pytest.raises(ValueError):
        radial_reduced_field(E=1.0, variant="nope")
    with pytest.raises(DomainError):
        radial_reduced_field(E=1.0).rhs(np.array([-0.1, 0.0]))


def test_calogero_energy_and_guard():
    cal = calogero_moser_field(l=0.5)
    s = np.array([0.0, 1.0, 0.2, -0.1])
    # E = (qd1^2 + qd2^2)/2 + l^2/(q2-q1)^2
    assert np.isclose(cal.energy(s), 0.5 * (0.04 + 0.01) + 0.25)
    dot = np.sum(cal.energy.gradient(s) * cal.rhs(s))
    assert abs(dot) < 1e-14
    with pytest.raises(DomainError):
        cal.rhs(np.array([1.0, 1.0, 0.0, 0.0]))


_BAD_VALUES = [np.nan, np.inf, -np.inf]

# each physical parameter a constructor takes: (parameter, call with value)
_PARAMETERS = {
    "radial-E": ("E", lambda x: radial_reduced_field(E=x)),
    "radial-l": ("l", lambda x: radial_reduced_field(l=x, variant="angular")),
    "calogero-l": ("l", calogero_moser_field),
    "oscillator-E": ("E", completed_oscillator_field),
    "oscillator-k": ("k", lambda x: completed_oscillator_field(-0.5, k=x)),
    "kepler-k": ("k", lambda x: kepler_field(k=x)),
    "kepler-r_min": ("r_min", lambda x: kepler_field(r_min=x)),
    "conformal-k": ("k", lambda x: conformal_kepler_field(k=x)),
    "conformal-R_min": ("R_min", lambda x: conformal_kepler_field(R_min=x)),
    "invariant-E": ("E", oscillator_invariant),
    "reparametrized-k": ("k", lambda x: reparametrized_field(k=x)),
    "observables-k": ("k", observables),
}


@pytest.mark.parametrize("value", _BAD_VALUES)
@pytest.mark.parametrize("case", sorted(_PARAMETERS))
def test_non_finite_parameters_are_rejected(case, value):
    name, build = _PARAMETERS[case]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build(value)


def _antisym(pairs):
    K = np.zeros((4, 4))
    for a, b, val in pairs:
        K[a, b] = val
        K[b, a] = -val
    return K


def _sym(pairs):
    S = np.zeros((4, 4))
    for a, b, val in pairs:
        S[a, b] = val
        S[b, a] = val
    return S


def test_ks_matrices_equal_their_literal_tables():
    """S_KS and K_H, read off the KS map, against the tables written out:
    the same bits, signs of zero included."""
    literal = (
        _antisym([(0, 1, 1.0), (2, 3, 1.0)]),   # h = 2 Y^T K_H U
        _sym([(0, 2, 1.0), (1, 3, 1.0)]),       # x1 = 2(y1 y3 + y2 y0)
        _sym([(1, 2, 1.0), (0, 3, -1.0)]),      # x2 = 2(y2 y3 - y1 y0)
        np.diag([1.0, 1.0, -1.0, -1.0]),        # x3 = y1^2 + y2^2 - y3^2 - y0^2
    )
    for derived, want in zip((K_H, *S_KS), literal, strict=True):
        assert derived.dtype == want.dtype
        assert derived.tobytes() == want.tobytes()


def test_scaling_presets():
    unit = scaling_preset("unit")
    assert unit(np.array([-3.0, 2.0])).tolist() == [1.0, 1.0]
    gy = scaling_preset("gyorgyi")
    assert np.isclose(gy(2.0), 0.5)
    with pytest.raises(DomainError):
        gy(-1.0)
    with pytest.raises(KeyError):
        scaling_preset("cubic")


def test_oscillator_invariant_equals_k_plus_energy_mismatch():
    # C_E = |U|^2/2 - E |Y|^2 = k + R^2 (E_chart - E); on the matching level
    # set it is identically k
    states = sample_chart_states(100, seed=67)
    Echart = OBSERVABLES["chart_energy"](states)
    r2 = np.sum(states[:, :4] ** 2, axis=1)
    for E in (-0.5, -0.125, 0.3):
        C = oscillator_invariant(E)(states)
        assert np.max(np.abs(C - (1.0 + r2 * (Echart - E)))) < 1e-12


def test_rescaled_runge_lenz_value_and_gradient():
    states = sample_chart_states(50, seed=71, energy_sign=-1)
    Qhat = rescaled_runge_lenz(0, sign=-1)
    E = OBSERVABLES["chart_energy"](states)
    expect = OBSERVABLES["Q1"](states) / np.sqrt(-2.0 * E)
    assert np.max(np.abs(Qhat(states) - expect)) < 1e-12
    # closed-form gradient against central differences
    s = states[0]
    g = Qhat.gradient(s)
    eps = 1e-6
    fd = np.array([
        (Qhat(s + eps * e) - Qhat(s - eps * e)) / (2 * eps)
        for e in np.eye(8)
    ])
    assert np.max(np.abs(g - fd)) < 1e-6 * max(1.0, np.max(np.abs(g)))
    # wrong branch: sign=-1 needs E < 0
    pos = sample_chart_states(5, seed=73, energy_sign=+1)
    with pytest.raises(DomainError):
        rescaled_runge_lenz(0, sign=-1)(pos)


def test_observable_lookup():
    assert OBSERVABLES["kepler_energy"].name == "kepler_energy"
    with pytest.raises(KeyError):
        OBSERVABLES["not_a_thing"]


def test_registry_dims_are_consistent():
    for name, o in OBSERVABLES.items():
        assert o.dim in (6, 8), name
        probe = np.arange(1.0, o.dim + 1.0)
        val = o(probe)
        assert np.isfinite(val), name
        assert np.shape(val) == ()
        assert o.gradient(probe).shape == (o.dim,), name


def test_projection_consistency_of_tangent_map():
    # sanity: the registered Kepler constants pulled through the lift equal
    # the geometric (y, u) versions up to the fixed factor two on J vs L
    pts = sample_states3(100, seed=79)
    y, u = ks_lift(pts[:, :3], pts[:, 3:])
    s_up = np.concatenate([y, u], axis=1)
    x, v = ks_tangent(y, u)
    assert np.max(np.abs(x - pts[:, :3])) < 1e-12
    L3 = OBSERVABLES["L3"](pts)
    J3 = OBSERVABLES["J3_yu"](s_up)
    ratio = J3 / L3
    assert np.max(np.abs(ratio - ratio[0])) < 1e-10


def test_reparametrized_gyorgyi_conserves_chart_energy_and_h():
    # a reparametrization scales both halves of the field by g(E), so the
    # flow keeps the chart energy (here positive, as gyorgyi needs) and h
    from ksunfold import IntegratorConfig, integrate

    s0 = np.array([0.8, -0.3, 0.4, 0.2, 1.1, 1.2, -0.5, 0.9])
    traj = integrate(reparametrized_field(scaling_preset("gyorgyi")), s0, 0.5,
                     config=IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
    for name in ("chart_energy", "h"):
        vals = OBSERVABLES[name](traj.states)
        assert np.max(np.abs(vals - vals[0])) < 1e-9, name
