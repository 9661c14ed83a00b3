"""Adaptive DP5(4) integrator: accuracy, order, dense output, failure modes."""

import csv
import dataclasses
import functools
import importlib
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from ksunfold import (
    DomainError,
    DynamicalSystem,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    calogero_moser_field,
    completed_oscillator_field,
    conformal_kepler_field,
    find_return_time,
    integrate,
    kepler_field,
    free3d_field,
    unfold_kepler,
)
from ksunfold.integrate import (
    _A, _B5, _CSV_BLOCK, _E, _MAX_FACTOR, _MIN_FACTOR, _ORDER_EXP, _P, _SAFETY,
    _monitor_values, _safeguarded_newton,
)
from ksunfold.reduction import OscillatorFlow
from ksunfold.sampling import rng_from_seed, sample_states_sigma0

# the module; the package exports its `integrate` function under that name
integrate_module = importlib.import_module("ksunfold.integrate")


def integrate_fixed(
    system: DynamicalSystem,
    s0,
    t_end: float,
    n_steps: int,
    method: str = "rk4",
    t0: float = 0.0,
) -> Trajectory:
    """Fixed-step integration (classical RK4 or the DP5 propagator without
    step control): an order-verification and cross-check oracle."""
    y = np.array(s0, dtype=float).reshape(-1)
    f = system.rhs
    h = (float(t_end) - t0) / int(n_steps)
    ts = [t0]
    ys = [y.copy()]
    t = t0
    for _ in range(int(n_steps)):
        if method == "rk4":
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        elif method == "dp5":
            K = np.empty((6, y.size))
            K[0] = f(y)
            for i in range(1, 6):
                K[i] = f(y + h * (_A[i, :i] @ K[:i]))
            y = y + h * (_B5[:6] @ K)
        else:
            raise ValueError(f"unknown method {method!r}")
        t = t0 + (len(ts)) * h
        ts.append(t)
        ys.append(y.copy())
    states = np.array(ys)
    return Trajectory(
        times=np.array(ts),
        states=states,
        monitors=_monitor_values(system, None, states),
        dense=None,
        state_names=system.state_names,
    )


def _oscillator_exact(s0, t, E=-0.5):
    """Closed form for dY/dtau = U, dU/dtau = 2E Y with omega = sqrt(-2E)."""
    w = np.sqrt(-2.0 * E)
    Y0, U0 = s0[:4], s0[4:]
    Y = np.cos(w * t) * Y0 + np.sin(w * t) / w * U0
    U = -w * np.sin(w * t) * Y0 + np.cos(w * t) * U0
    return np.concatenate([Y, U])


def test_free_particle_is_exact():
    free = free3d_field()
    s0 = np.array([1.0, -2.0, 0.5, 0.3, 0.1, -0.7])
    traj = integrate(free, s0, 10.0)
    expect = s0.copy()
    expect[:3] += 10.0 * s0[3:]
    assert np.max(np.abs(traj.states[-1] - expect)) < 1e-12


def test_oscillator_closes_after_full_period():
    osc = completed_oscillator_field(E=-0.5)
    rng = rng_from_seed(1)
    s0 = rng.normal(size=8)
    traj = integrate(osc, s0, 2 * np.pi)
    assert np.max(np.abs(traj.states[-1] - s0)) < 1e-9
    assert traj.times[-1] == 2 * np.pi


def test_against_closed_form_oscillator():
    osc = completed_oscillator_field(E=-0.5)
    s0 = np.array([1.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.0, -0.2])
    traj = integrate(osc, s0, 7.3)
    assert np.max(np.abs(traj.states[-1] - _oscillator_exact(s0, 7.3))) < 1e-9


def test_tightening_tolerance_reduces_error():
    osc = completed_oscillator_field(E=-0.5)
    s0 = np.array([1.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.0, -0.2])
    errs = []
    for rtol in (1e-7, 1e-9, 1e-11):
        traj = integrate(osc, s0, 5.0, config=IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-2))
        errs.append(np.max(np.abs(traj.states[-1] - _oscillator_exact(s0, 5.0))))
    assert errs[1] < errs[0] / 2 and errs[2] < errs[1] / 2


def _endpoint_error(method, n):
    osc = completed_oscillator_field(E=-0.5)
    s0 = np.array([1.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.0, -0.2])
    traj = integrate_fixed(osc, s0, np.pi, n, method=method)
    return np.max(np.abs(traj.states[-1] - _oscillator_exact(s0, np.pi)))


def test_fixed_step_convergence_orders():
    # halving the step should scale the error by about 2^order
    e1, e2 = _endpoint_error("rk4", 40), _endpoint_error("rk4", 80)
    order = np.log2(e1 / e2)
    assert 3.7 < order < 4.3, order
    e1, e2 = _endpoint_error("dp5", 40), _endpoint_error("dp5", 80)
    order = np.log2(e1 / e2)
    assert 4.6 < order < 5.4, order


def test_adaptive_agrees_with_fixed_step_cross_check():
    # eccentric Kepler arc: two independent integration routes
    kep = kepler_field()
    s0 = np.array([1.0, 0.0, 0.0, 0.0, 0.8, 0.0])
    a = integrate(kep, s0, 2.0).states[-1]
    b = integrate_fixed(kep, s0, 2.0, 20000, method="rk4").states[-1]
    assert np.max(np.abs(a - b)) < 1e-8


def test_dense_output_between_nodes():
    osc = completed_oscillator_field(E=-0.5)
    s0 = np.array([1.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.0, -0.2])
    traj = integrate(osc, s0, 6.0)
    ts = np.linspace(0.0, 6.0, 757)
    vals = np.array([traj.eval(t) for t in ts])
    exact = np.array([_oscillator_exact(s0, t) for t in ts])
    assert np.max(np.abs(vals - exact)) < 1e-9


def test_dense_derivative_matches_field():
    osc = completed_oscillator_field(E=-0.5)
    s0 = np.array([1.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.0, -0.2])
    traj = integrate(osc, s0, 3.0)
    for t in (0.37, 1.77, 2.93):
        d = traj.deriv(t)
        assert np.max(np.abs(d - osc.rhs(traj.eval(t)))) < 1e-8


def test_dense_eval_outside_span_raises():
    osc = completed_oscillator_field(E=-0.5)
    traj = integrate(osc, np.ones(8), 1.0)
    with pytest.raises(ValueError):
        traj.eval(1.5)
    with pytest.raises(ValueError):
        traj.eval(-0.1)


def test_dense_deriv_outside_span_raises():
    osc = completed_oscillator_field(E=-0.5)
    traj = integrate(osc, np.ones(8), 1.0)
    for t in (5.0, -0.1, [0.5, 1.5]):
        with pytest.raises(ValueError, match="outside trajectory span"):
            traj.deriv(t)
    assert np.array_equal(traj.deriv(1.0 + 1e-13), traj.deriv(1.0))


def test_interpolant_consistency_identities():
    # row sums of the dense-output coefficient matrix reproduce the 5th
    # order weights: the interpolant is node-exact at theta = 1
    assert np.allclose(_P.sum(axis=1), _B5, atol=1e-15)


def test_monitor_values_recorded_at_accepted_steps():
    kep = kepler_field()
    traj = integrate(kep, np.array([1.0, 0, 0, 0, 1.0, 0]), 5.0)
    assert "kepler_energy" in traj.monitors
    E = traj.monitors["kepler_energy"]
    assert E.shape == traj.times.shape
    assert np.max(E) - np.min(E) < 1e-9


def test_max_steps_exceeded():
    kep = kepler_field()
    with pytest.raises(IntegrationError):
        integrate(kep, np.array([1.0, 0, 0, 0, 1.0, 0]), 100.0,
                  config=IntegratorConfig(max_steps=10))


def test_collision_course_surfaces_integration_error():
    kep = kepler_field()
    s0 = np.array([1.0, 0.0, 0.0, -0.5, 0.0, 0.0])  # radial infall
    with pytest.raises(IntegrationError) as exc_info:
        integrate(kep, s0, 2.0)
    err = exc_info.value
    assert err.t is not None and 0.0 < err.t < 2.0
    assert err.state is not None and err.state.shape == (6,)


def test_bad_initial_state_raises_domain_error_immediately():
    kep = kepler_field(r_min=0.5)
    with pytest.raises(DomainError):
        integrate(kep, np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0]), 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
    with pytest.raises(ValueError):
        integrate(free3d_field(), np.zeros(6), 0.0)


@pytest.mark.parametrize("name, value", [
    (name, value)
    for name in ("rel_tol", "abs_tol", "initial_step")
    for value in (np.nan, 0.0, -1e-3, np.inf, -np.inf)
] + [("max_step", value) for value in (np.nan, 0.0, -1e-3, -np.inf)])
def test_config_rejects_a_bad_field_by_name(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be .*positive"):
        IntegratorConfig(**{name: value})


def test_config_accepts_an_unlimited_max_step():
    traj = integrate(kepler_field(), np.array([1.0, 0, 0, 0, 1.0, 0]), 1.0,
                     config=IntegratorConfig(max_step=np.inf, initial_step=0.1))
    assert traj.t1 == 1.0


@pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
def test_non_finite_t0_raises_before_any_rhs_call(t0):
    counted = _Counted(kepler_field().rhs)
    with pytest.raises(ValueError, match="^t0 must be finite"):
        integrate(DynamicalSystem("kepler", 6, rhs=counted),
                  np.array([1.0, 0, 0, 0, 1.0, 0]), 1.0, t0=t0)
    assert counted.calls == 0


@pytest.mark.parametrize("s0, t_end", [
    ([1.0, 0.0, 0.0, np.inf, 1.0, 0.0], 1.0),
    ([np.nan, 0.0, 0.0, 0.0, 1.0, 0.0], 1.0),
    ([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], np.inf),
    ([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], np.nan),
])
def test_non_finite_start_or_horizon_raises(s0, t_end):
    with pytest.raises(ValueError, match="finite"):
        integrate(kepler_field(), np.array(s0), t_end)


def test_max_step_is_respected():
    osc = completed_oscillator_field(E=-0.5)
    traj = integrate(osc, np.ones(8), 2.0,
                     config=IntegratorConfig(max_step=0.01))
    assert np.max(np.diff(traj.times)) <= 0.01 + 1e-12


def test_return_time_oscillator():
    osc = completed_oscillator_field(E=-0.5)
    s0 = np.array([1.0, 0.3, 0.5, 0.0, 0.0, 1.0, 0.0, -0.2])
    traj = integrate(osc, s0, 9.0)
    t_ret = find_return_time(traj, s0, tol=1e-6)
    assert abs(t_ret - 2 * np.pi) < 1e-8


def test_return_time_kepler_orbits():
    kep = kepler_field()
    # circular a=1: T = 2 pi; circular a=4: T = 16 pi
    for a in (1.0, 4.0):
        s0 = np.array([a, 0.0, 0.0, 0.0, 1.0 / np.sqrt(a), 0.0])
        T = 2 * np.pi * a**1.5
        traj = integrate(kep, s0, 1.2 * T)
        t_ret = find_return_time(traj, s0, tol=1e-6)
        assert abs(t_ret - T) < 1e-6 * T


def test_return_time_needs_departure():
    # an equilibrium never leaves the reference neighbourhood
    still = DynamicalSystem("still", 2, rhs=lambda s: np.zeros_like(s))
    traj = integrate(still, np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        find_return_time(traj, np.array([1.0, 0.0]), tol=1e-6)


def _find_return_time_brentq(traj, reference, tol, components=None):
    """Oracle for find_return_time: the same detection, each crossing
    refined by SciPy's brentq (xtol 1e-12) on `eval` alone."""
    ref = np.asarray(reference, dtype=float).reshape(-1)
    comp = np.arange(ref.size) if components is None else np.asarray(components)
    refc = ref[comp]
    dist_nodes = np.linalg.norm(traj.states[:, comp] - refc, axis=1)
    w = traj.deriv(traj.times[int(np.argmin(dist_nodes))])[comp]
    w = w / np.linalg.norm(w)
    g_nodes = (traj.states[:, comp] - refc) @ w
    departed = dist_nodes > max(4.0 * tol, 0.25 * float(np.max(dist_nodes)))
    start = int(np.argmax(departed))

    def g_of(t):
        return float((traj.eval(t)[comp] - refc) @ w)

    for i in range(start, len(traj.times) - 1):
        if g_nodes[i] < 0.0 <= g_nodes[i + 1]:
            t_star = brentq(g_of, traj.times[i], traj.times[i + 1], xtol=1e-12)
            if np.linalg.norm(traj.eval(t_star)[comp] - refc) < tol:
                return float(t_star)
    raise ValueError("no return within the trajectory span")


def _apocentre(a, e):
    """Kepler state (k = 1) at apocentre, semi-major axis a, eccentricity e."""
    r = a * (1.0 + e)
    return np.array([r, 0.0, 0.0, 0.0, np.sqrt((1.0 - e) / r), 0.0])


# circular, e = 0.6, e = 0.9, and the energies E = -0.25, -0.125 of
# acceptance criterion 6 (its E = -0.5 is the circular orbit)
_RETURN_ORBITS = {
    "circular": _apocentre(1.0, 0.0),
    "e0.6": _apocentre(1.0, 0.6),
    "e0.9": _apocentre(1.0, 0.9),
    "E-0.25": _apocentre(2.0, 0.0),
    "E-0.125": _apocentre(4.0, 0.0),
}


@pytest.mark.parametrize("orbit", sorted(_RETURN_ORBITS))
def test_return_time_of_closed_form_flow_matches_brentq(orbit):
    p0 = _RETURN_ORBITS[orbit]
    E = 0.5 * p0[3:] @ p0[3:] - 1.0 / np.linalg.norm(p0[:3])
    res = unfold_kepler(p0, 2.2 * 2 * np.pi / np.sqrt(-2 * E), compare=False)
    up = res.upstairs
    t_ret = find_return_time(up, up.states[0], 1e-6, components=range(8))
    oracle = _find_return_time_brentq(up, up.states[0], 1e-6,
                                      components=range(8))
    assert abs(t_ret - oracle) <= 1e-12
    assert abs(t_ret - 2 * np.pi / np.sqrt(-2 * E)) <= 1e-10


@pytest.mark.parametrize("orbit", sorted(_RETURN_ORBITS))
def test_return_time_of_dp5_kepler_orbit_matches_brentq(orbit):
    p0 = _RETURN_ORBITS[orbit]
    a = 1.0 / (2.0 / np.linalg.norm(p0[:3]) - p0[3:] @ p0[3:])
    traj = integrate(kepler_field(), p0, 1.2 * 2 * np.pi * a**1.5,
                     config=IntegratorConfig(rel_tol=1e-11))
    t_ret = find_return_time(traj, p0, tol=1e-6)
    assert abs(t_ret - _find_return_time_brentq(traj, p0, 1e-6)) <= 1e-12


def test_return_time_of_dp5_oscillator_matches_brentq():
    osc = completed_oscillator_field(E=-0.5)
    s0 = np.array([1.0, 0.3, 0.5, 0.0, 0.0, 1.0, 0.0, -0.2])
    traj = integrate(osc, s0, 9.0)
    t_ret = find_return_time(traj, s0, tol=1e-6)
    assert abs(t_ret - _find_return_time_brentq(traj, s0, 1e-6)) <= 1e-12


def _find_return_time_node_loop(traj, reference, tol, components=None):
    """Oracle for find_return_time: its bracket scan as a loop over the
    nodes, each bracket refined as find_return_time refines it."""
    ref = np.asarray(reference, dtype=float).reshape(-1)
    comp = np.arange(ref.size) if components is None else np.asarray(components)
    refc = ref[comp]
    dist_nodes = np.linalg.norm(traj.states[:, comp] - refc, axis=1)
    w = traj.deriv(traj.times[int(np.argmin(dist_nodes))])[comp]
    w = w / np.linalg.norm(w)
    g_nodes = (traj.states[:, comp] - refc) @ w
    departed = dist_nodes > max(4.0 * tol, 0.25 * float(np.max(dist_nodes)))
    start = int(np.argmax(departed))

    def fdf(t):
        return ((traj.eval(t)[comp] - refc) @ w,
                traj.deriv(t)[comp] @ w)

    for i in range(start, len(traj.times) - 1):
        g0, g1 = g_nodes[i], g_nodes[i + 1]
        if g0 < 0.0 <= g1:
            lo, hi = traj.times[i], traj.times[i + 1]
            t_star = float(_safeguarded_newton(
                fdf, lo, hi, lo + (hi - lo) * (g0 / (g0 - g1)), 1e-14))
            if np.linalg.norm(traj.eval(t_star)[comp] - refc) < tol:
                return t_star
    raise ValueError("no return within the trajectory span")


def _two_frequency_trajectory(t_end):
    """DP5 run of two decoupled oscillators at frequencies 1 and 3: before
    it returns at 2 pi it crosses the return hyperplane twice, far from the
    start."""
    def rhs(s):
        return np.concatenate([s[..., 2:], -np.array([1.0, 9.0]) * s[..., :2]],
                              axis=-1)

    s0 = np.array([1.0, 0.3, 0.0, 1.5])
    return integrate(DynamicalSystem("two-frequency", 4, rhs=rhs), s0,
                     t_end), s0


@functools.cache
def _return_cases():
    two, s0 = _two_frequency_trajectory(1.3 * 2 * np.pi)
    osc = completed_oscillator_field(E=-0.5)
    o0 = np.array([1.0, 0.3, 0.5, 0.0, 0.0, 1.0, 0.0, -0.2])
    cases = {
        "dp5-two-frequency": (two, s0, None),
        "dp5-oscillator": (integrate(osc, o0, 9.0), o0, None),
    }
    for orbit in ("circular", "e0.9"):
        p0 = _RETURN_ORBITS[orbit]
        a = 1.0 / (2.0 / np.linalg.norm(p0[:3]) - p0[3:] @ p0[3:])
        cases[f"dp5-kepler-{orbit}"] = (
            integrate(kepler_field(), p0, 1.2 * 2 * np.pi * a**1.5), p0, None)
        E = 0.5 * p0[3:] @ p0[3:] - 1.0 / np.linalg.norm(p0[:3])
        up = unfold_kepler(p0, 2.2 * 2 * np.pi / np.sqrt(-2 * E),
                           compare=False).upstairs
        cases[f"flow-{orbit}"] = (up, up.states[0], range(8))
    return cases


@pytest.mark.parametrize("case", [
    "dp5-kepler-circular", "dp5-kepler-e0.9", "dp5-oscillator",
    "dp5-two-frequency", "flow-circular", "flow-e0.9",
])
def test_return_time_scan_equals_the_node_loop(case):
    traj, ref, comp = _return_cases()[case]
    t_ret = find_return_time(traj, ref, 1e-6, components=comp)
    assert t_ret == _find_return_time_node_loop(traj, ref, 1e-6,
                                                components=comp)


@pytest.mark.parametrize("case", [
    "dp5-kepler-circular", "dp5-kepler-e0.9", "dp5-two-frequency",
    "flow-circular", "flow-e0.9",
])
def test_return_time_evaluates_the_flow_once_per_newton_iteration(
        case, monkeypatch):
    traj, ref, comp = _return_cases()[case]
    t_want = find_return_time(traj, ref, 1e-6, components=comp)
    # one evaluation: a closed-form `eval`, or a dense `_locate` (which
    # both `eval` and `deriv` of a Trajectory start with)
    cls = type(traj)
    name = "eval" if cls is OscillatorFlow else "_locate"
    evaluate = getattr(cls, name)
    counts = {"evaluations": 0, "iterations": 0}

    def counted(self, t):
        counts["evaluations"] += 1
        return evaluate(self, t)

    def counted_newton(fdf, *args):
        def counted_fdf(x):
            before = counts["evaluations"]
            out = fdf(x)
            assert counts["evaluations"] == before + 1
            counts["iterations"] += 1
            return out

        return _safeguarded_newton(counted_fdf, *args)

    monkeypatch.setattr(cls, name, counted)
    monkeypatch.setattr(integrate_module, "_safeguarded_newton",
                        counted_newton)
    assert find_return_time(traj, ref, 1e-6, components=comp) == t_want
    assert counts["iterations"] > 0


@pytest.mark.parametrize("case", ["dp5-kepler-e0.9", "flow-e0.9"])
def test_eval_and_deriv_equals_eval_and_deriv_bit_for_bit(case):
    traj = _return_cases()[case][0]
    nodes = traj.times
    inside = nodes[:-1] + 0.37 * np.diff(nodes)
    for t in (nodes, inside, nodes[5], inside[7], float(inside[-1])):
        state, slope = traj.eval_and_deriv(t)
        assert np.array_equal(state, traj.eval(t))
        assert np.array_equal(slope, traj.deriv(t))


def test_return_time_skips_a_crossing_that_misses_tol():
    traj, s0 = _return_cases()["dp5-two-frequency"][:2]
    w = traj.deriv(0.0) / np.linalg.norm(traj.deriv(0.0))
    g = (traj.states - s0) @ w
    up = np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))
    far = np.linalg.norm(traj.states[up] - s0, axis=1) > 1.0
    assert far[0] and not far.all()  # a far crossing comes first
    t_ret = find_return_time(traj, s0, 1e-6)
    assert t_ret == _find_return_time_node_loop(traj, s0, 1e-6)
    assert abs(t_ret - 2.0 * np.pi) < 1e-8


class _Polygon:
    """A path through 2-D nodes at times 0, 1, 2, ..., linear between
    them: the `times`, `states`, `eval`, `deriv` and `eval_and_deriv`
    find_return_time uses."""

    def __init__(self, nodes):
        self.states = np.asarray(nodes, dtype=float)
        self.times = np.arange(len(self.states), dtype=float)

    def _segment(self, t):
        return int(np.clip(np.floor(t), 0, len(self.times) - 2))

    def eval(self, t):
        i = self._segment(t)
        return self.states[i] + (t - i) * (self.states[i + 1] - self.states[i])

    def deriv(self, t):
        i = self._segment(t)
        return self.states[i + 1] - self.states[i]

    def eval_and_deriv(self, t):
        return self.eval(t), self.deriv(t)


# the return hyperplane is y = 0 and nodes lie on it exactly: node 4 far
# from the start and node 8 at it, each reached from y < 0; or node 4 at the
# start but reached from y > 0, which is no crossing, and node 7 from y < 0
_POLYGONS = {
    "far-node-first": ([[0, 0], [0, 1], [1, 1], [1, -1], [1, 0], [1, 1],
                        [0, 1], [0, -1], [0, 0], [0, 1]], 8.0),
    "touch-from-above": ([[0, 0], [0, 2], [2, 2], [1, 1], [0, 0], [-1, 1],
                          [-1, -1], [0, 0], [0, 1]], 7.0),
}


@pytest.mark.parametrize("case", sorted(_POLYGONS))
def test_return_time_brackets_nodes_on_the_hyperplane(case):
    nodes, t_want = _POLYGONS[case]
    path = _Polygon(nodes)
    t_ret = find_return_time(path, [0.0, 0.0], 1e-6)
    assert t_ret == _find_return_time_node_loop(path, [0.0, 0.0], 1e-6)
    assert t_ret == t_want


def _no_return_cases():
    free = integrate(free3d_field(), np.array([1.0, 0, 0, 0, 1.0, 0]), 5.0)
    up = unfold_kepler(_RETURN_ORBITS["circular"], 0.6 * 2 * np.pi,
                       compare=False).upstairs
    return {"dp5-free": (free, free.states[0], None),
            "flow-short-span": (up, up.states[0], range(8))}


@pytest.mark.parametrize("case", ["dp5-free", "flow-short-span"])
def test_return_time_without_a_crossing_raises_like_the_node_loop(case):
    traj, ref, comp = _no_return_cases()[case]
    with pytest.raises(ValueError) as oracle:
        _find_return_time_node_loop(traj, ref, 1e-6, components=comp)
    with pytest.raises(ValueError) as got:
        find_return_time(traj, ref, 1e-6, components=comp)
    assert str(got.value) == str(oracle.value) == (
        "no return within the trajectory span")


def test_safeguarded_newton_bisects_where_newton_leaves_the_bracket():
    # atan: Newton from |x| > 1.39 overshoots the bracket; x^3 - 1e-3
    # starts where f' = 0; x^2 - 2 converges by Newton alone; a root at an end
    def fdf(x):
        return (np.stack([np.arctan(x[0]), x[1] ** 3 - 1e-3, x[2] ** 2 - 2.0,
                          x[3] - 1.0]),
                np.stack([1.0 / (1.0 + x[0] ** 2), 3.0 * x[1] ** 2,
                          2.0 * x[2], np.ones_like(x[3])]))

    lo = np.array([-1.0, -1.0, 0.0, 1.0])
    hi = np.array([20.0, 2.0, 2.0, 3.0])
    x = np.array([15.0, 0.0, 1.0, 2.0])
    root = _safeguarded_newton(fdf, lo, hi, x, 1e-14)
    assert np.all(np.abs(root - [0.0, 0.1, np.sqrt(2.0), 1.0])
                  <= [1e-15, 1e-15, 1e-15, 0.0])


def test_csv_export_roundtrip(tmp_path):
    kep = kepler_field()
    traj = integrate(kep, np.array([1.0, 0, 0, 0, 1.0, 0]), 1.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    assert rows[0][1:7] == list(kep.state_names)
    assert len(rows) == 1 + len(traj.times)
    # full precision survives the round trip
    back = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.array_equal(back[:, 0], traj.times)
    assert np.array_equal(back[:, 1:7], traj.states)


def test_integrate_fixed_rejects_unknown_method():
    with pytest.raises(ValueError):
        integrate_fixed(free3d_field(), np.zeros(6), 1.0, 10, method="euler")


# --- bulk CSV writer against the per-row csv.writer loops it replaced --------

def _trajectory_csv_oracle(traj, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        names = traj.state_names or tuple(
            f"s{i}" for i in range(traj.states.shape[1])
        )
        w.writerow(["t", *names, *traj.monitors.keys()])
        mon = [traj.monitors[k] for k in traj.monitors]
        for i in range(len(traj.times)):
            row = [f"{traj.times[i]:.16e}"]
            row += [f"{v:.16e}" for v in traj.states[i]]
            row += [f"{m[i]:.16e}" for m in mon]
            w.writerow(row)


def _unfold_csv_oracle(res, path):
    cols = (
        ["tau", "t"]
        + ["Y1", "Y2", "Y3", "Y0", "U1", "U2", "U3", "U0"]
        + ["x1", "x2", "x3", "v1", "v2", "v3"]
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for i in range(len(res.taus)):
            row = [res.taus[i], res.ts[i], *res.chart[i],
                   *res.xs[i], *res.vs[i]]
            w.writerow([f"{val:.16e}" for val in row])


def _assert_same_csv(tmp_path, obj, oracle):
    obj.to_csv(tmp_path / "new.csv")
    oracle(obj, tmp_path / "old.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    return new


_GALLERY = {
    "circular": (np.array([1.0, 0, 0, 0, 1.0, 0]), 2 * np.pi),
    "eccentric": (np.array([1.0, 0, 0, 0, 0.8, 0]), 2 * np.pi / np.sqrt(1.36)),
    "collision": (np.array([1.0, 0, 0, -0.5, 0, 0]), 6.0),
}

_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
            1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0]


@pytest.mark.parametrize("orbit", sorted(_GALLERY))
def test_unfold_csv_matches_row_loop_oracle(tmp_path, orbit):
    p0, tau_end = _GALLERY[orbit]
    res = unfold_kepler(p0, tau_end)
    assert len(res.taus) % _CSV_BLOCK != 0
    text = _assert_same_csv(tmp_path, res, _unfold_csv_oracle)
    assert text.count(b"\r\n") == 1 + len(res.taus)


def test_trajectory_csv_matches_row_loop_oracle(tmp_path):
    traj = integrate(kepler_field(), np.array([1.6, 0, 0, 0, 0.5, 0]),
                     4 * np.pi, config=IntegratorConfig(rel_tol=1e-11))
    assert len(traj.times) > _CSV_BLOCK
    _assert_same_csv(tmp_path, traj, _trajectory_csv_oracle)


def _synthetic_trajectory(n, seed=0):
    rng = rng_from_seed(seed)
    states = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    flat = states.reshape(-1)
    flat[: min(len(_SPECIAL), flat.size)] = _SPECIAL[: flat.size]
    return Trajectory(times=np.arange(n) * 0.1, states=states,
                      monitors={"m": -states[:, 0], "flag": np.ones(n)})


@pytest.mark.parametrize("n", [1, 4, 511, 512, 513, 1031])
def test_trajectory_csv_synthetic_tables(tmp_path, n):
    traj = _synthetic_trajectory(n)
    text = _assert_same_csv(tmp_path, traj, _trajectory_csv_oracle)
    assert text.count(b"\r\n") == 1 + n
    if n > 1:
        for word in (b"nan", b"inf", b"-inf", b"-0.0000000000000000e+00",
                     b"4.9406564584124654e-324", b"1.7976931348623157e+308"):
            assert word in text


@pytest.mark.parametrize("n", [1, 700])
def test_unfold_csv_synthetic_tables(tmp_path, n):
    res = unfold_kepler(*_GALLERY["circular"], compare=False, n_samples=8)
    rng = rng_from_seed(1)
    table = rng.normal(size=(n, 16)) * 10.0 ** rng.integers(-300, 300, (n, 16))
    table.reshape(-1)[: len(_SPECIAL)] = _SPECIAL[: table.size]
    res = dataclasses.replace(res, taus=table[:, 0], ts=table[:, 1],
                              chart=table[:, 2:10], xs=table[:, 10:13],
                              vs=table[:, 13:16])
    _assert_same_csv(tmp_path, res, _unfold_csv_oracle)


# --- DP5 loop and Kepler rhs against the arithmetic they replaced ------------

def _kepler_rhs_oracle(s, k=1.0, r_min=1e-12):
    s = np.asarray(s, dtype=float)
    x, v = s[..., :3], s[..., 3:6]
    r = np.linalg.norm(x, axis=-1)
    if np.any(r < r_min):
        raise DomainError(f"kepler rhs: r < r_min = {r_min:g}", state=s)
    acc = -k * x / r[..., None] ** 3
    return np.concatenate([v, acc], axis=-1)


def _initial_step_oracle(f, y0, f0, t_end, cfg):
    if cfg.initial_step is not None:
        return min(cfg.initial_step, t_end)
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = f(y0 + h0 * f0)
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    except DomainError:
        return min(h0 * 1e-3, t_end)
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end, cfg.max_step)


def _integrate_oracle(f, s0, t_end, cfg, t0=0.0):
    """The step loop as first written: (times, states, dense)."""
    y = np.array(s0, dtype=float).reshape(-1)
    t = t0
    k0 = f(y)
    h = _initial_step_oracle(f, y, k0, t_end - t0, cfg)
    ts = [t]
    ys = [y.copy()]
    dense = []
    K = np.empty((7, y.size))
    attempts = 0
    last_domain_error = None
    while t < t_end:
        attempts += 1
        if attempts > cfg.max_steps:
            raise IntegrationError(
                f"step count exceeded max_steps={cfg.max_steps}", t=t, state=y
            )
        floor = 16.0 * np.finfo(float).eps * max(abs(t), 1.0)
        if h < floor:
            detail = (f": rhs domain error persisted ({last_domain_error})"
                      if last_domain_error is not None else "")
            raise IntegrationError(
                f"step size {h:.3g} underflowed at t={t:.6g}{detail}",
                t=t, state=y,
            )
        h_eff = min(h, cfg.max_step)
        clamped = t + h_eff >= t_end
        h_step = t_end - t if clamped else h_eff
        try:
            K[0] = k0
            for i in range(1, 6):
                K[i] = f(y + h_step * (_A[i, :i] @ K[:i]))
            y_new = y + h_step * (_B5[:6] @ K[:6])
            K[6] = f(y_new)
        except DomainError as exc:
            h = h_step / 2.0
            last_domain_error = exc
            continue
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.mean(((h_step * (_E @ K)) / scale) ** 2))
        if err <= 1.0:
            t_new = t_end if clamped else t + h_step
            dense.append(h_step * (K.T @ _P))
            ts.append(t_new)
            ys.append(y_new.copy())
            t, y, k0 = t_new, y_new, K[6].copy()
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err**_ORDER_EXP
            )
            h = h_step * factor
        else:
            h = h_step * max(_MIN_FACTOR, _SAFETY * err**_ORDER_EXP)
    return np.array(ts), np.array(ys), np.array(dense)


class _Counted:
    """A right-hand side that counts its calls, DomainErrors and the
    attempts that completed all six stage evaluations."""

    def __init__(self, f):
        self.f, self.calls, self.domain_errors = f, 0, 0
        self.full_attempts, self._stage = 0, 0

    def __call__(self, s):
        self.calls += 1
        try:
            out = self.f(s)
        except DomainError:
            self.domain_errors += 1
            self._stage = 0
            raise
        if self.calls > 2:
            self._stage += 1
            if self._stage == 6:
                self._stage, self.full_attempts = 0, self.full_attempts + 1
        return out


@pytest.mark.parametrize("e", [0.0, 0.6, 0.9])
def test_stepper_matches_oracle_bit_for_bit(e):
    s0 = np.array([1.0 + e, 0, 0, 0, np.sqrt((1.0 - e) / (1.0 + e)), 0])
    cfg = IntegratorConfig(rel_tol=1e-11)
    counted = _Counted(kepler_field().rhs)
    traj = integrate(DynamicalSystem("kepler", 6, rhs=counted), s0,
                     4 * np.pi, config=cfg)
    times, states, dense = _integrate_oracle(_kepler_rhs_oracle, s0,
                                             4 * np.pi, cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.dense, dense)
    assert traj.stats == {
        "rhs_evals": counted.calls,
        "rejected_steps": counted.full_attempts - (len(times) - 1),
        "domain_retries": 0,
    }
    assert traj.stats["rhs_evals"] == 2 + 6 * counted.full_attempts


@pytest.mark.parametrize("r_min", [1e-12, 1e-3])
def test_collision_failure_matches_oracle(r_min):
    # at the default r_min the error control shrinks the step to underflow
    # first; at 1e-3 the rhs raises DomainError and the step is halved
    s0 = np.array([1.0, 0, 0, -0.5, 0, 0])
    counted = _Counted(kepler_field(r_min=r_min).rhs)
    with pytest.raises(IntegrationError) as new:
        integrate(DynamicalSystem("kepler", 6, rhs=counted), s0, 2.0)
    with pytest.raises(IntegrationError) as old:
        _integrate_oracle(lambda s: _kepler_rhs_oracle(s, r_min=r_min),
                          s0, 2.0, IntegratorConfig())
    assert new.value.t == old.value.t
    assert np.array_equal(new.value.state, old.value.state)
    assert (r_min > 1e-12) == ("domain error persisted" in str(old.value))
    assert counted.domain_errors > 0 or r_min == 1e-12
    assert str(new.value) == (
        f"{old.value} (rhs_evals={counted.calls}, rejected_steps=0, "
        f"domain_retries={counted.domain_errors})")


def test_max_steps_failure_reports_counts():
    with pytest.raises(IntegrationError, match=r"max_steps=10 \(rhs_evals=62, "
                       r"rejected_steps=\d+, domain_retries=0\)"):
        integrate(kepler_field(), np.array([1.0, 0, 0, 0, 1.0, 0]), 100.0,
                  config=IntegratorConfig(max_steps=10))


def test_integration_error_carries_the_counts():
    with pytest.raises(IntegrationError) as exc:
        integrate(kepler_field(), np.array([1.0, 0, 0, 0, 1.0, 0]), 100.0,
                  config=IntegratorConfig(max_steps=10))
    stats = exc.value.stats
    assert set(stats) == {"rhs_evals", "rejected_steps", "domain_retries"}
    assert stats["rhs_evals"] == 62
    assert str(exc.value).endswith(
        "(" + ", ".join(f"{k}={v}" for k, v in stats.items()) + ")")


def test_kepler_rhs_matches_oracle_bit_for_bit():
    rhs = kepler_field().rhs
    rng = rng_from_seed(3)
    batch = rng.normal(size=(257, 6)) * 10.0 ** rng.integers(-4, 4, (257, 1))
    assert np.array_equal(rhs(batch), _kepler_rhs_oracle(batch))
    for s in batch[:8]:
        assert np.array_equal(rhs(s), _kepler_rhs_oracle(s))
        assert rhs(s).shape == (6,)
    batch[100, :3] = [1e-13, 0.0, 0.0]
    with pytest.raises(DomainError):
        rhs(batch)
    with pytest.raises(DomainError):
        _kepler_rhs_oracle(batch)
    # one state below r_min
    with pytest.raises(DomainError):
        rhs(batch[100])
    with pytest.raises(DomainError):
        _kepler_rhs_oracle(batch[100])
    # a NaN member does not hide one below r_min
    batch[7, :3] = np.nan
    with pytest.raises(DomainError):
        rhs(batch)
    with pytest.raises(DomainError):
        _kepler_rhs_oracle(batch)
    # NaN compares false: an all-NaN batch passes through, as in the oracle
    nan_batch = np.full((4, 6), np.nan)
    assert np.array_equal(rhs(nan_batch), _kepler_rhs_oracle(nan_batch),
                          equal_nan=True)
    assert np.isnan(rhs(nan_batch[0])).all()


def _bits(a):
    """The float64 bit patterns of an array: NaN payloads and -0.0 count."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _outcome(f, s):
    """f(s), or the DomainError it raised, with every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = f(s)
        except DomainError as exc:
            out = exc
    return out, [(w.category, str(w.message)) for w in caught]


def _assert_same_outcome(f, oracle, s):
    got, got_warnings = _outcome(f, s)
    want, want_warnings = _outcome(oracle, s)
    assert got_warnings == want_warnings
    if isinstance(want, DomainError):
        assert isinstance(got, DomainError) and str(got) == str(want)
    else:
        assert not isinstance(got, DomainError)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_kepler_rhs_single_states_match_oracle_bit_for_bit(k):
    # 1e5 single states, positions and velocities each scaled by 1e-4..1e4
    rhs = kepler_field(k=k).rhs
    rng = rng_from_seed(31)
    n = 100_000
    states = rng.normal(size=(n, 6)) * np.repeat(
        10.0 ** rng.uniform(-4.0, 4.0, (n, 2)), 3, axis=1)
    want = _kepler_rhs_oracle(states, k=k)
    got = np.array([rhs(s) for s in states])
    assert np.array_equal(_bits(got), _bits(want))
    # the batched oracle is the single-state oracle row by row
    for s, row in zip(states[:2000], want):
        assert np.array_equal(_bits(_kepler_rhs_oracle(s, k=k)), _bits(row))


def _edge_states():
    """(name, r_min, state) at the boundaries of the single-state path."""
    v = [0.3, -0.2, 1.0]
    x = np.array([0.6, -1.3, 0.25])
    r = float(np.linalg.norm(x))
    below = np.nextafter(1e-12, 0.0)
    return [
        ("r == r_min", 1e-12, np.array([1e-12, 0.0, 0.0, *v])),
        ("r just below r_min", 1e-12, np.array([below, 0.0, 0.0, *v])),
        ("r == r_min, 3 terms", r, np.array([*x, *v])),
        ("r just below r_min, 3 terms", np.nextafter(r, np.inf),
         np.array([*x, *v])),
        ("x == 0, r_min == 0", 0.0, np.array([0.0, 0.0, 0.0, *v])),
        ("x == -0, r_min == 0", 0.0, np.array([-0.0, 0.0, -0.0, *v])),
        ("r^3 underflows to 0", 0.0, np.array([1e-120, -2e-120, 3e-120, *v])),
        ("r^3 subnormal", 0.0, np.array([1e-105, -2e-105, 3e-106, *v])),
        ("r^3 overflows", 1e-12, np.array([1e200, -3e200, 2e199, *v])),
        ("r^3 near overflow", 1e-12, np.array([3e102, -1e102, 2e102, *v])),
        ("r^3 overflows, r finite", 1e-12, np.array([1e110, -3e110, 0.0, *v])),
        ("r near 1e100", 1e-12, np.array([1e100, 0.0, 0.0, *v])),
        ("r near 1e-100", 0.0, np.array([1e-100, 0.0, 0.0, *v])),
        ("x_i^2 underflows", 1e-12, np.array([1.0, 1e-200, -1e-170, *v])),
        ("NaN position", 1e-12, np.array([np.nan, 0.5, 0.0, *v])),
        ("NaN velocity", 1e-12, np.array([1.0, 0.5, 0.0, np.nan, 0.0, 1.0])),
        ("+inf position", 1e-12, np.array([np.inf, 0.5, 0.0, *v])),
        ("-inf position", 1e-12, np.array([1.0, -np.inf, 0.0, *v])),
        ("inf and NaN position", 1e-12, np.array([np.inf, np.nan, 0.0, *v])),
        ("inf velocity", 1e-12, np.array([1.0, 0.5, 0.0, 0.0, -np.inf, 1.0])),
        ("list", 1e-12, [0.6, -1.3, 0.25, *v]),
        ("list below r_min", 1e-12, [1e-13, 0.0, 0.0, *v]),
        ("float32", 1e-12, np.array([0.6, -1.3, 0.25, *v], dtype=np.float32)),
        ("big-endian float64", 1e-12, np.array([*x, *v], dtype=">f8")),
        ("int64", 1e-12, np.array([1, 2, -2, 0, 1, 0])),
        ("non-contiguous", 1e-12,
         np.array([*x, *v, *x, *v]).reshape(2, 6).T.copy()[:, 0]),
        ("strided view", 1e-12, np.repeat(np.array([*x, *v]), 2)[::2]),
        ("one-row batch", 1e-12, np.array([[*x, *v]])),
    ]


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, -3.0, 1e100, 1e101, 1e300])
@pytest.mark.parametrize("name, r_min, state", _edge_states(),
                         ids=[case[0] for case in _edge_states()])
def test_kepler_rhs_edge_states_match_oracle(name, r_min, state, k):
    _assert_same_outcome(kepler_field(k=k, r_min=r_min).rhs,
                         lambda s: _kepler_rhs_oracle(s, k=k, r_min=r_min),
                         state)


def _assert_stepper_matches_oracle(system, s0, t_end, cfg):
    counted = _Counted(system.rhs)
    traj = integrate(dataclasses.replace(system, rhs=counted), s0, t_end,
                     config=cfg)
    times, states, dense = _integrate_oracle(system.rhs, s0, t_end, cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.dense, dense)
    assert traj.stats == {
        "rhs_evals": counted.calls,
        "rejected_steps": counted.full_attempts - (len(times) - 1),
        "domain_retries": counted.domain_errors,
    }


@pytest.mark.parametrize("e", [0.0, 0.6, 0.9])
def test_stepper_matches_oracle_over_ten_periods(e):
    # the simulate workload's runs: ten periods at rel_tol 1e-11
    s0 = np.array([1.0 + e, 0, 0, 0, np.sqrt((1.0 - e) / (1.0 + e)), 0])
    _assert_stepper_matches_oracle(kepler_field(), s0, 20 * np.pi,
                                   IntegratorConfig(rel_tol=1e-11))


@pytest.mark.parametrize("system, s0, t_end", [
    (calogero_moser_field(1.0 / np.sqrt(2.0)),
     np.array([0.0, 1.0, 0.3, -0.4]), 6.0),
    (conformal_kepler_field(), sample_states_sigma0(1, seed=17)[0], 4.0),
], ids=["calogero-4", "conformal-8"])
def test_stepper_matches_oracle_in_other_dimensions(system, s0, t_end):
    # 4 and 8 states: NumPy sums the 8-dim error norm in pairwise order
    _assert_stepper_matches_oracle(system, s0, t_end,
                                   IntegratorConfig(rel_tol=1e-10))


@pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan, -1e300])
def test_non_finite_error_norm_matches_oracle_with_its_warnings(value):
    # an oscillator whose rhs turns non-finite (or overflows the error
    # estimate) past s0 = 0.9: every step that reaches there is rejected
    # until the step underflows
    def rhs(s):
        out = np.array([s[1], -s[0]])
        if s[0] > 0.9:
            out[1] = value
        return out

    def run(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IntegrationError) as exc:
                fn()
        # the loop forms products with ndarray.dot and squares with z * z
        # where the oracle uses @ and ** 2: the same arithmetic, under other
        # names in NumPy's warnings
        return exc.value, [(w.category, str(w.message).replace(
            "matmul", "dot").replace("square", "multiply")) for w in caught]

    s0, cfg = np.array([0.0, 1.0]), IntegratorConfig()
    counted = _Counted(rhs)
    new, new_warnings = run(lambda: integrate(
        DynamicalSystem("osc", 2, rhs=counted), s0, 3.0, config=cfg))
    old, old_warnings = run(lambda: _integrate_oracle(rhs, s0, 3.0, cfg))
    assert new_warnings == old_warnings
    assert (value == value) == bool(old_warnings)  # NaN raises none
    assert new.t == old.t and np.array_equal(new.state, old.state)
    assert str(new).startswith(f"{old} (rhs_evals={counted.calls}, ")


def _inf_past(x_max):
    def rhs(s):
        out = np.array([s[1], -s[0]])
        if s[0] > x_max:
            out[1] = -np.inf
        return out
    return rhs


@pytest.mark.parametrize("max_steps, reason", [
    (10_000_000, "underflowed"), (50, "max_steps=50")])
def test_failure_names_the_non_finite_attempts(max_steps, reason):
    system = DynamicalSystem("osc", 2, rhs=_inf_past(0.9))
    cfg = IntegratorConfig(max_steps=max_steps)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(IntegrationError) as exc:
            integrate(system, np.array([0.0, 1.0]), 3.0, config=cfg)
    message = str(exc.value)
    assert reason in message
    head, note = message.split("; ")
    assert head.endswith(")") and "rhs_evals=" in head
    assert note.startswith("rhs returned inf or NaN")
    count = int(note.split(" on ")[1].split()[0])
    assert 0 < count <= exc.value.stats["rejected_steps"]
    # the stats keep their keys
    assert set(exc.value.stats) == {"rhs_evals", "rejected_steps",
                                    "domain_retries"}


def test_finite_failure_does_not_mention_non_finite_values():
    with pytest.raises(IntegrationError) as exc:
        integrate(kepler_field(), np.array([1.0, 0, 0, -0.5, 0, 0]), 3.0)
    assert "inf or NaN" not in str(exc.value)
