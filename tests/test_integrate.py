"""Adaptive DOP853 integrator: accuracy, order, dense output, failure modes."""

import csv
import dataclasses
import functools
import math
import re
import struct
import types
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
    radial_reduced_field,
    reparametrized_field,
    unfold_kepler,
)
from ksunfold.integrate import (
    _A8, _DOP853_POWERS, _ROOT_MAX_ITER, _initial_step, _monitor_values,
    _safeguarded_newton,
)
from ksunfold.output import _CSV_BLOCK
from ksunfold.reduction import OscillatorFlow, UnfoldResult
from ksunfold.sampling import rng_from_seed, sample_states_sigma0
from dop853_oracle import (
    Counted, call_count, error_oracle, integrate_module, integrate_oracle,
)


def integrate_fixed(
    system: DynamicalSystem,
    s0,
    t_end: float,
    n_steps: int,
    method: str = "rk4",
    t0: float = 0.0,
) -> Trajectory:
    """Fixed-step integration (classical RK4 or DOP853's 8th-order
    propagator without step control): an order-verification and
    cross-check oracle."""
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
        elif method == "dop853":
            K = np.empty((12, y.size))
            K[0] = f(y)
            for i in range(1, 12):
                K[i] = f(y + h * (_A8[i, :i] @ K[:i]))
            y = y + h * (_A8[12, :12] @ K)
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
    # 5 and 10 steps over half a period: errors 4.9e-9 and 1.9e-11, far
    # above rounding
    e1, e2 = _endpoint_error("dop853", 5), _endpoint_error("dop853", 10)
    order = np.log2(e1 / e2)
    assert 7.6 < order < 8.4, order


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
    # at theta = 1 the power basis reduces to F0 = y_new - y: the
    # interpolant is node-exact
    assert np.array_equal(_DOP853_POWERS.sum(axis=1), np.eye(7)[0])


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


def test_config_has_only_the_tolerances_and_the_step_cap():
    # and the dense-output switch
    assert [(f.name, f.default) for f in dataclasses.fields(
        IntegratorConfig)] == [
        ("rel_tol", 1e-11), ("abs_tol", 1e-12), ("max_steps", 10_000_000),
        ("dense_output", True)]


@pytest.mark.parametrize("value", [0, 1, "False", None, np.True_])
def test_config_rejects_a_dense_output_that_is_not_a_bool(value):
    with pytest.raises(ValueError, match=r"^dense_output must be a bool"):
        IntegratorConfig(dense_output=value)


def test_trajectory_without_dense_output_refuses_to_interpolate():
    traj = integrate(kepler_field(), _apocentre(1.0, 0.6), 4 * np.pi,
                     config=IntegratorConfig(dense_output=False))
    assert traj.dense is None
    for call in (lambda: traj.eval(1.0), lambda: traj.deriv(1.0),
                 lambda: traj.eval_and_deriv(1.0),
                 lambda: find_return_time(traj, traj.states[0], 1e-6)):
        with pytest.raises(ValueError, match="^trajectory has no dense "
                                             "output$"):
            call()


@pytest.mark.parametrize("name, value", [
    (name, value)
    for name in ("rel_tol", "abs_tol")
    for value in (np.nan, 0.0, -1e-3, np.inf, -np.inf)
])
def test_config_rejects_a_bad_field_by_name(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be .*positive"):
        IntegratorConfig(**{name: value})


@pytest.mark.parametrize("value", [
    np.nan, np.inf, 2.5, 1e6, 0, -3, True, "100", None])
def test_config_rejects_a_max_steps_that_is_not_a_positive_integer(value):
    # a NaN cap used to switch the cap off: attempts > nan is never true
    with pytest.raises(ValueError, match=r"^max_steps must be a positive "
                                         r"integer"):
        IntegratorConfig(max_steps=value)


def test_config_takes_a_numpy_integer_max_steps():
    assert IntegratorConfig(max_steps=np.int64(10)).max_steps == 10


@pytest.mark.parametrize("value", ["rk45", "DOP853", "", None, 5])
def test_config_rejects_an_unknown_method(value):
    # one pair: there is no method to choose
    with pytest.raises(TypeError, match="'method'"):
        IntegratorConfig(method=value)


@pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
def test_non_finite_t0_raises_before_any_rhs_call(t0):
    counted = Counted(kepler_field().rhs)
    with pytest.raises(ValueError, match="^t0 must be finite"):
        integrate(DynamicalSystem("kepler", 6, rhs=counted),
                  np.array([1.0, 0, 0, 0, 1.0, 0]), 1.0, t0=t0)
    assert counted.calls == 0


@pytest.mark.parametrize("dense_output", [True, False])
@pytest.mark.parametrize("s0", [[1.0, 0.0, 0.0, 1.0],
                                [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]],
                         ids=["4", "7"])
def test_a_state_of_the_wrong_length_raises_before_any_rhs_call(
        s0, dense_output):
    counted = Counted(kepler_field().rhs)
    with pytest.raises(ValueError, match=rf"^s0 has length {len(s0)}, but "
                                         r"the kepler system has dim 6$"):
        integrate(DynamicalSystem("kepler", 6, rhs=counted), s0, 1.0,
                  config=IntegratorConfig(dense_output=dense_output))
    assert counted.calls == 0
    with pytest.raises(ValueError, match=rf"^s0 has length {len(s0)}"):
        integrate(kepler_field(), s0, 1.0,
                  config=IntegratorConfig(dense_output=dense_output))


@pytest.mark.parametrize("s0, t_end", [
    ([1.0, 0.0, 0.0, np.inf, 1.0, 0.0], 1.0),
    ([np.nan, 0.0, 0.0, 0.0, 1.0, 0.0], 1.0),
    ([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], np.inf),
    ([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], np.nan),
])
def test_non_finite_start_or_horizon_raises(s0, t_end):
    with pytest.raises(ValueError, match="finite"):
        integrate(kepler_field(), np.array(s0), t_end)


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
def test_return_time_of_dop853_kepler_orbit_matches_brentq(orbit):
    p0 = _RETURN_ORBITS[orbit]
    a = 1.0 / (2.0 / np.linalg.norm(p0[:3]) - p0[3:] @ p0[3:])
    traj = integrate(kepler_field(), p0, 1.2 * 2 * np.pi * a**1.5,
                     config=IntegratorConfig(rel_tol=1e-11))
    t_ret = find_return_time(traj, p0, tol=1e-6)
    assert abs(t_ret - _find_return_time_brentq(traj, p0, 1e-6)) <= 1e-12


def test_return_time_of_dop853_oscillator_matches_brentq():
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
    """DOP853 run of two decoupled oscillators at frequencies 1 and 3: before
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
        "dop853-two-frequency": (two, s0, None),
        "dop853-oscillator": (integrate(osc, o0, 9.0), o0, None),
    }
    for orbit in ("circular", "e0.9"):
        p0 = _RETURN_ORBITS[orbit]
        a = 1.0 / (2.0 / np.linalg.norm(p0[:3]) - p0[3:] @ p0[3:])
        cases[f"dop853-kepler-{orbit}"] = (
            integrate(kepler_field(), p0, 1.2 * 2 * np.pi * a**1.5), p0, None)
        E = 0.5 * p0[3:] @ p0[3:] - 1.0 / np.linalg.norm(p0[:3])
        up = unfold_kepler(p0, 2.2 * 2 * np.pi / np.sqrt(-2 * E),
                           compare=False).upstairs
        cases[f"flow-{orbit}"] = (up, up.states[0], range(8))
    return cases


@pytest.mark.parametrize("case", [
    "dop853-kepler-circular", "dop853-kepler-e0.9", "dop853-oscillator",
    "dop853-two-frequency", "flow-circular", "flow-e0.9",
])
def test_return_time_scan_equals_the_node_loop(case):
    traj, ref, comp = _return_cases()[case]
    t_ret = find_return_time(traj, ref, 1e-6, components=comp)
    assert t_ret == _find_return_time_node_loop(traj, ref, 1e-6,
                                                components=comp)


@pytest.mark.parametrize("case", [
    "dop853-kepler-circular", "dop853-kepler-e0.9", "dop853-two-frequency",
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


@pytest.mark.parametrize("case", ["dop853-kepler-e0.9", "flow-e0.9"])
def test_eval_and_deriv_equals_eval_and_deriv_bit_for_bit(case):
    traj = _return_cases()[case][0]
    nodes = traj.times
    inside = nodes[:-1] + 0.37 * np.diff(nodes)
    for t in (nodes, inside, nodes[5], inside[7], float(inside[-1])):
        state, slope = traj.eval_and_deriv(t)
        assert np.array_equal(state, traj.eval(t))
        assert np.array_equal(slope, traj.deriv(t))


def test_return_time_skips_a_crossing_that_misses_tol():
    traj, s0 = _return_cases()["dop853-two-frequency"][:2]
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
    return {"dop853-free": (free, free.states[0], None),
            "flow-short-span": (up, up.states[0], range(8))}


@pytest.mark.parametrize("case", ["dop853-free", "flow-short-span"])
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
    # ten periods: more than one block of rows
    traj = integrate(kepler_field(), np.array([1.6, 0, 0, 0, 0.5, 0]),
                     20 * np.pi, config=IntegratorConfig(rel_tol=1e-11))
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
    rng = rng_from_seed(1)
    table = rng.normal(size=(n, 16)) * 10.0 ** rng.integers(-300, 300, (n, 16))
    table.reshape(-1)[: len(_SPECIAL)] = _SPECIAL[: table.size]
    # the columns UnfoldResult.to_csv reads, which a result takes from its
    # flow, held by a stand-in
    res = types.SimpleNamespace(taus=table[:, 0], ts=table[:, 1],
                                chart=table[:, 2:10], xs=table[:, 10:13],
                                vs=table[:, 13:16])
    res.to_csv = functools.partial(UnfoldResult.to_csv, res)
    _assert_same_csv(tmp_path, res, _unfold_csv_oracle)


# --- step loop and Kepler rhs against the arithmetic they replaced ----------

def _kepler_rhs_oracle(s, k=1.0, r_min=1e-12):
    s = np.asarray(s, dtype=float)
    x, v = s[..., :3], s[..., 3:6]
    r2 = np.add.reduce(x * x, axis=-1)
    r = np.sqrt(r2)
    if np.any(r < r_min):
        raise DomainError(f"kepler rhs: r < r_min = {r_min:g}", state=s)
    acc = -k * x / (r2 * r)[..., None]
    return np.concatenate([v, acc], axis=-1)


@pytest.mark.parametrize("e", [0.0, 0.6, 0.9])
def test_stepper_matches_oracle_bit_for_bit(e):
    s0 = np.array([1.0 + e, 0, 0, 0, np.sqrt((1.0 - e) / (1.0 + e)), 0])
    cfg = IntegratorConfig(rel_tol=1e-11)
    counted = Counted(kepler_field().rhs)
    traj = integrate(DynamicalSystem("kepler", 6, rhs=counted), s0,
                     4 * np.pi, config=cfg)
    times, states, dense, stats = integrate_oracle(_kepler_rhs_oracle, s0,
                                                   4 * np.pi, cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.dense, dense)
    assert traj.stats == stats
    assert stats["rhs_evals"] == counted.calls == call_count(
        stats, len(times) - 1)
    assert stats["domain_retries"] == 0


@pytest.mark.parametrize("r_min", [1e-12, 1e-3])
def test_collision_failure_matches_oracle(r_min):
    # at the default r_min the error control shrinks the step to underflow
    # first; at 1e-3 the rhs raises DomainError and the step is halved
    s0 = np.array([1.0, 0, 0, -0.5, 0, 0])
    counted = Counted(kepler_field(r_min=r_min).rhs)
    with pytest.raises(IntegrationError) as new:
        integrate(DynamicalSystem("kepler", 6, rhs=counted), s0, 2.0)
    with pytest.raises(IntegrationError) as old:
        integrate_oracle(lambda s: _kepler_rhs_oracle(s, r_min=r_min),
                         s0, 2.0, IntegratorConfig())
    assert new.value.t == old.value.t
    assert np.array_equal(new.value.state, old.value.state)
    assert (r_min > 1e-12) == ("domain error persisted" in str(old.value))
    assert counted.domain_errors > 0 or r_min == 1e-12
    assert str(new.value) == str(old.value)
    assert new.value.stats == old.value.stats == {
        "rhs_evals": counted.calls,
        "rejected_steps": old.value.stats["rejected_steps"],
        "domain_retries": counted.domain_errors}


def test_max_steps_failure_reports_counts():
    with pytest.raises(IntegrationError, match=r"max_steps=10 \(rhs_evals="
                       r"\d+, rejected_steps=\d+, domain_retries=0\)") as exc:
        integrate(kepler_field(), np.array([1.0, 0, 0, 0, 1.0, 0]), 100.0,
                  config=IntegratorConfig(max_steps=10))
    nfev, rejected = map(int, re.search(r"rhs_evals=(\d+), rejected_steps="
                                        r"(\d+)", str(exc.value)).groups())
    # 10 attempts, each accepted or rejected
    assert nfev == call_count({"rejected_steps": rejected}, 10 - rejected)


def test_integration_error_carries_the_counts():
    with pytest.raises(IntegrationError) as exc:
        integrate(kepler_field(), np.array([1.0, 0, 0, 0, 1.0, 0]), 100.0,
                  config=IntegratorConfig(max_steps=10))
    stats = exc.value.stats
    assert set(stats) == {"rhs_evals", "rejected_steps", "domain_retries"}
    assert stats["rhs_evals"] == call_count(stats, 10 - stats["rejected_steps"])
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
        # one ulp inside the fused kernel's guard: r^2 * r is within a few
        # ulp of 1e300 and of 1e-300
        ("r just inside 1e100", 1e-12,
         np.array([np.nextafter(1e100, 0.0), 0.0, 0.0, *v])),
        ("r just inside 1e-100", 0.0,
         np.array([np.nextafter(1e-100, 1.0), 0.0, 0.0, *v])),
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
    rhs = kepler_field(k=k, r_min=r_min).rhs
    oracle = functools.partial(_kepler_rhs_oracle, k=k, r_min=r_min)
    _assert_same_outcome(rhs, oracle, state)
    # under -W error the first warning is raised, and it is the oracle's
    assert _raised(rhs, state) == _raised(oracle, state)
    if name == "r^3 overflows, r finite":
        assert _raised(rhs, state)[0] is RuntimeWarning


def _raised(f, s):
    """The type and message of what f(s) raises with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            f(s)
        except (DomainError, RuntimeWarning) as exc:
            return type(exc), str(exc)
    return None


# the 18 of the 30 edge states that the fused kernel declines: r outside
# (1e-100, 1e100), an inf or NaN component, or r below r_min
_KERNEL_DECLINES = [
    "r just below r_min", "r just below r_min, 3 terms",
    "x == 0, r_min == 0", "x == -0, r_min == 0", "r^3 underflows to 0",
    "r^3 subnormal", "r^3 overflows", "r^3 near overflow",
    "r^3 overflows, r finite", "r near 1e100", "r near 1e-100",
    "NaN position", "NaN velocity", "+inf position", "-inf position",
    "inf and NaN position", "inf velocity", "list below r_min",
]


# a bit pattern that no rhs writes: a NaN with its own payload
_SENTINEL = struct.pack("<Q", 0x7FF4_0000_DEAD_BEEF)


def _kernel_out(stage, y, h, d):
    """`stage` called as the loop calls it, with d in a buffer of floats
    and a byte row of len(y) sentinels: (the stage state it returns, the
    rhs it wrote into the row), or None where it declined, which leaves
    the row as it was."""
    row = bytearray(_SENTINEL * len(y))
    state = stage(y, h, memoryview(np.array(d, dtype=float)), memoryview(row))
    if state is None:
        assert row == _SENTINEL * len(y)
        return None
    return state, np.frombuffer(row)


@pytest.mark.parametrize("k", [1.0, -3.0, 1e100, -1e100])
def test_kepler_stage_kernel_on_the_edge_states(k):
    # each edge state as a stage state y + 0 * 0: the kernel gives the
    # array expression's bits, or declines it
    declined = []
    for name, r_min, state in _edge_states():
        y = np.asarray(state, dtype=float).reshape(6).tolist()
        out = _kernel_out(kepler_field(k=k, r_min=r_min).rhs.stage, y, 0.0,
                          [0.0] * 6)
        if out is None:
            declined.append(name)
            continue
        assert np.array_equal(_bits(np.array(out[0])), _bits(np.array(y)))
        assert np.array_equal(
            _bits(out[1]),
            _bits(_kepler_rhs_oracle(y, k=k, r_min=r_min))), name
    assert len(_edge_states()) == 30
    assert declined == _KERNEL_DECLINES


@pytest.mark.parametrize("k", [1.0, -3.0, 1e100, -1e100])
def test_kepler_stage_kernel_writes_its_row_and_nothing_else(k):
    # edge state j on row j % 16 of a K of sentinels, through the byte
    # view the loop hands the kernel: a state it takes changes that row's
    # 48 bytes alone, to the oracle's bits; one it declines changes none
    sentinels = _SENTINEL * (16 * 6)
    declined = []
    for j, (name, r_min, state) in enumerate(_edge_states()):
        y = np.asarray(state, dtype=float).reshape(6).tolist()
        K = np.frombuffer(bytearray(sentinels)).reshape(16, 6)
        i = j % 16
        row = memoryview(K).cast("B")[48 * i:48 * (i + 1)]
        d = memoryview(np.zeros(6))
        if kepler_field(k=k, r_min=r_min).rhs.stage(y, 0.0, d, row) is None:
            declined.append(name)
            assert K.tobytes() == sentinels, name
            continue
        others = np.delete(K, i, axis=0)
        assert others.tobytes() == _SENTINEL * (15 * 6), name
        assert np.array_equal(
            _bits(K[i]), _bits(_kepler_rhs_oracle(y, k=k, r_min=r_min))), name
    assert declined == _KERNEL_DECLINES


@pytest.mark.parametrize("k", [1.0, -3.0, 1e100])
def test_kepler_stage_kernel_matches_the_array_expression(k):
    # the fused kernel's stage state is y + h * d and its rhs the array
    # rhs's, bit for bit, signed zeros included; it declines every stage
    # state that holds inf or NaN, so that the loop forms it in NumPy
    stage = kepler_field(k=k).rhs.stage
    rng = rng_from_seed(41)
    n = 20_000
    ys = rng.normal(size=(n, 6)) * 10.0 ** rng.uniform(-4.0, 4.0, (n, 1))
    ds = rng.normal(size=(n, 6)) * 10.0 ** rng.uniform(-4.0, 4.0, (n, 1))
    hs = 10.0 ** rng.uniform(-6.0, 0.0, n)
    ys[:8], ds[:8], hs[:8] = 0.0, 0.0, 0.5
    ys[:8, 1] = 1.0
    ys[0, 3], ds[0, 3] = -0.0, -0.0        # a signed zero kept
    ys[1, 0], ds[1, 0] = 1.0, -2.0         # x0 passes through 0
    ys[2, 3], ds[2, 3] = 1.7e308, 1e308    # v overflows to inf
    ys[3, 0], ds[3, 0] = -1.7e308, -1e308  # x overflows to -inf
    ds[4, 5] = np.nan                      # NaN velocity
    ds[5, 3] = np.inf                      # inf velocity
    ds[6, 0], hs[6] = np.inf, 0.0          # 0 * inf is NaN
    ys[7, 3], ys[7, 4] = 1e308, 1e308      # finite, but v's sum overflows
    with np.errstate(over="ignore", invalid="ignore"):
        states = ys + hs[:, None] * ds
    finite = np.all(np.isfinite(states), axis=1)
    assert finite[[0, 1, 7]].all() and not finite[2:7].any()
    declined = 0
    for y, h, d, s, ok in zip(ys.tolist(), hs.tolist(), ds.tolist(), states,
                              finite):
        out = _kernel_out(stage, y, h, d)
        if out is None:
            declined += 1
            continue
        assert ok
        assert np.array_equal(_bits(np.array(out[0])), _bits(s))
        assert np.array_equal(_bits(out[1]),
                              _bits(_kepler_rhs_oracle(s, k=k)))
    # only the non-finite stage states, and the one whose velocity sum
    # overflows, are declined
    assert declined == 5 + 1


def test_kepler_r3_is_no_less_accurate_than_np_power():
    # r^3 as the fused kernel forms it, r^2 * r, against the exact |x|^3 in
    # 200-bit mpmath, over 3000 positions with |x| from 1e-2 to 1e2: within
    # 4 ulp, and no worse on average than np.power(r, 3.0) (mean 0.65 ulp
    # against 0.95, worst 3.0 against 4.0)
    mpmath = pytest.importorskip("mpmath")
    rng = rng_from_seed(0)
    n = 3000
    xs = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-2.0, 2.0, (n, 1))
    power = np.power(np.sqrt(np.add.reduce(xs * xs, axis=-1)), 3.0)
    stage = kepler_field().rhs.stage
    new, old = [], []
    with mpmath.workprec(200):
        for x, p in zip(xs.tolist(), power.tolist()):
            x0, x1, x2 = x
            r2 = x0 * x0 + x1 * x1 + x2 * x2
            r3 = r2 * math.sqrt(r2)
            # the kernel's own r^3: -k x0 / r3 at k = 1
            _, row = _kernel_out(stage, [*x, 0.0, 0.0, 0.0], 0.0, [0.0] * 6)
            assert row[3] == -x0 / r3
            exact = mpmath.fsum(mpmath.mpf(c) ** 2 for c in x) ** 1.5
            ulp = math.ulp(float(exact))
            new.append(float(abs(r3 - exact)) / ulp)
            old.append(float(abs(p - exact)) / ulp)
    assert max(new) < 4.0
    assert np.mean(new) <= np.mean(old)


def _assert_stepper_matches_oracle(system, s0, t_end, cfg):
    counted = Counted(system.rhs)
    traj = integrate(dataclasses.replace(system, rhs=counted), s0, t_end,
                     config=cfg)
    times, states, dense, stats = integrate_oracle(system.rhs, s0, t_end, cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.dense, dense)
    assert traj.stats == stats
    assert stats["rhs_evals"] == counted.calls
    assert stats["domain_retries"] == counted.domain_errors


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
    # 4 and 8 states
    _assert_stepper_matches_oracle(system, s0, t_end,
                                   IntegratorConfig(rel_tol=1e-10))


def _cube_rotated(s0):
    """s0 with x and v turned by a rotation of the cube (det +1)."""
    R = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    return np.concatenate([R @ s0[:3], R @ s0[3:]])


@pytest.mark.parametrize("s0", [
    _apocentre(1.0, 0.0), _apocentre(1.0, 0.6), _apocentre(1.0, 0.9),
    _cube_rotated(_apocentre(1.0, 0.6)),
], ids=["e0", "e0.6", "e0.9", "e0.6-rotated"])
def test_float_route_matches_oracle_bit_for_bit(s0):
    # kepler_field's own rhs: the loop calls its fused `stage` kernel
    cfg = IntegratorConfig(rel_tol=1e-11)
    system = kepler_field()
    traj = integrate(system, s0, 4 * np.pi, config=cfg)
    times, states, dense, stats = integrate_oracle(_kepler_rhs_oracle, s0,
                                                   4 * np.pi, cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.dense, dense)
    # a replaced rhs (a tracer's, say) has no float route: it sees every
    # call, and the run gives the same bits and counts
    counting = Counted(system.rhs)
    replaced = integrate(dataclasses.replace(system, rhs=counting), s0,
                         4 * np.pi, config=cfg)
    assert counting.calls == traj.stats["rhs_evals"]
    assert replaced.stats == traj.stats == stats
    assert stats["rhs_evals"] == call_count(stats, len(times) - 1)
    assert stats["domain_retries"] == 0
    assert np.array_equal(replaced.times, traj.times)
    assert np.array_equal(replaced.states, traj.states)
    assert np.array_equal(replaced.dense, traj.dense)
    for name, values in traj.monitors.items():
        assert np.array_equal(replaced.monitors[name], values)


def test_loop_calls_the_float_route_of_an_rhs_that_has_one():
    # only k0 and the step-size probe take the array rhs
    rhs = kepler_field().rhs
    calls = {"array": 0, "floats": 0}

    def counted(s):
        calls["array"] += 1
        return rhs(s)

    def counted_stage(y, h, d, row):
        calls["floats"] += 1
        return rhs.stage(y, h, d, row)

    counted.stage = counted_stage
    traj = integrate(DynamicalSystem("kepler", 6, rhs=counted),
                     _apocentre(1.0, 0.6), 2 * np.pi)
    assert calls == {"array": 2, "floats": traj.stats["rhs_evals"] - 2}
    # |k| > 1e100 could overflow in floats: no float route
    assert hasattr(kepler_field(k=1e100).rhs, "stage")
    assert not hasattr(kepler_field(k=1e101).rhs, "stage")


@pytest.mark.parametrize("r_min", [1e-12, 1e-3])
def test_float_route_collision_failure_matches_oracle(r_min):
    # inside r_min the kernel declines and the array rhs raises DomainError
    s0 = np.array([1.0, 0, 0, -0.5, 0, 0])
    with pytest.raises(IntegrationError) as new:
        integrate(kepler_field(r_min=r_min), s0, 2.0)
    with pytest.raises(IntegrationError) as old:
        integrate_oracle(lambda s: _kepler_rhs_oracle(s, r_min=r_min),
                         s0, 2.0, IntegratorConfig())
    assert new.value.t == old.value.t
    assert np.array_equal(new.value.state, old.value.state)
    assert str(new.value) == str(old.value)
    assert (new.value.stats["domain_retries"] > 0) == (r_min > 1e-12)


def _wrapped_kepler(stage):
    """kepler_field's array rhs, counted, with the kernel `stage`, which
    gets the rhs's own kernel as its first argument."""
    rhs = kepler_field().rhs
    counted = Counted(rhs)
    counted.stage = functools.partial(stage, rhs.stage)
    return DynamicalSystem("kepler", 6, rhs=counted)


def _assert_kernel_matches_oracle(stage, s0, cfg):
    system = _wrapped_kepler(stage)
    traj = integrate(system, s0, 4 * np.pi, config=cfg)
    times, states, dense, stats = integrate_oracle(_kepler_rhs_oracle, s0,
                                                   4 * np.pi, cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert (traj.dense is dense is None
            or np.array_equal(traj.dense, dense))
    assert traj.stats == stats
    return system.rhs.calls


@pytest.mark.parametrize("form", [list, tuple, np.array],
                         ids=["list", "tuple", "ndarray"])
def test_kernel_rhs_of_any_sequence_type_matches_oracle(form):
    # the kernel writes its rhs into its row of K itself; the loop takes
    # the stage state it returns as any sequence of six floats
    def stage(own, y, h, d, row):
        state = own(y, h, d, row)
        return None if state is None else form(state)

    calls = _assert_kernel_matches_oracle(stage, _apocentre(1.0, 0.6),
                                          IntegratorConfig(rel_tol=1e-11))
    assert calls == 2  # k0 and the step-size probe


@pytest.mark.parametrize("bad_state, error, n_calls", [
    (lambda y: (y + y)[:5], ValueError, 12),
    (lambda y: (y + y)[:7], ValueError, 15),
    (lambda y: y[:-1] + [None], TypeError, 12),
    (lambda y: y[:-1] + ["1.0"], TypeError, 12),
], ids=["length-5", "length-7", "item-None", "item-str"])
def test_kernel_state_not_of_six_floats_raises(bad_state, error, n_calls):
    # the last stage's state is the new state, and the first attempt
    # raises on it: in its error scale (5 components, an item no float)
    # or, once the dense stages 13-15 are in, where its 7 components would
    # be stored; no state is accepted
    calls = []

    def stage(own, y, h, d, row):
        state = own(y, h, d, row)
        calls.append(len(state))
        return bad_state(state)

    system = _wrapped_kepler(stage)
    with pytest.raises(error):
        integrate(system, _apocentre(1.0, 0.6), 2 * np.pi)
    assert calls == [6] * n_calls


@pytest.mark.parametrize("dense_output", [True, False])
def test_kernel_declining_every_third_call_matches_oracle(dense_output):
    # any three calls in a row hold one declined stage, so every attempt
    # mixes stored rows with rows formed in NumPy, and each accepted step's
    # dense stages 13-15 hold one declined stage and two stored rows
    verdicts = []

    def stage(own, y, h, d, row):
        verdicts.append(len(verdicts) % 3 != 2)
        return own(y, h, d, row) if verdicts[-1] else None

    cfg = IntegratorConfig(rel_tol=1e-11, dense_output=dense_output)
    calls = _assert_kernel_matches_oracle(stage, _apocentre(1.0, 0.9), cfg)
    assert calls == 2 + verdicts.count(False) == 2 + len(verdicts) // 3


def _run_with_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [(w.category, str(w.message)) for w in caught]


def _recorded(fn):
    """(times, states, dense, stats, failure message) of the integration fn
    runs, a trajectory's or an oracle's, and the warnings it raised, less
    those of the dot products (`@` and `ndarray.dot` flag an overflow inside
    a product a different number of times)."""
    def outcome():
        try:
            out = fn()
        except IntegrationError as exc:
            return [exc.t], exc.state[None], None, exc.stats, str(exc)
        if isinstance(out, Trajectory):
            out = (out.times, out.states, out.dense, out.stats)
        return (*out, "")

    out, caught = _run_with_warnings(outcome)
    return out, [(category, message) for category, message in caught
                 if not message.endswith(("dot", "matmul"))]


# (k, r_min, s0, t_end): the benchmark's three orbits and a cube-rotated
# one; a collision at the default r_min (the error control underflows the
# step) and at 1e-3 (the rhs raises DomainError and the step is halved); a
# drift whose stage states pass r = 1e100 and then overflow; and a k with
# no float route
_FUSED_CASES = {
    "e0": (1.0, 1e-12, _apocentre(1.0, 0.0), 4 * np.pi),
    "e0.6": (1.0, 1e-12, _apocentre(1.0, 0.6), 4 * np.pi),
    "e0.9": (1.0, 1e-12, _apocentre(1.0, 0.9), 4 * np.pi),
    "e0.6-rotated": (1.0, 1e-12, _cube_rotated(_apocentre(1.0, 0.6)),
                     4 * np.pi),
    "collision-1e-12": (1.0, 1e-12, np.array([1.0, 0, 0, -0.5, 0, 0]), 2.0),
    "collision-1e-3": (1.0, 1e-3, np.array([1.0, 0, 0, -0.5, 0, 0]), 2.0),
    "stage-overflow": (1.0, 1e-12, np.array([1.7e308, 0, 0, 1e306, 0, 0]),
                       10.0),
    "k1e101": (1e101, 1e-12, _apocentre(1.0, 0.6), 2 * np.pi),
}


@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
def test_fused_kernel_matches_oracle_bit_for_bit(case):
    # every stage goes through the kernel once; k0, the step-size probe and
    # each stage the kernel declines take the array rhs
    k, r_min, s0, t_end = _FUSED_CASES[case]
    system = kepler_field(k=k, r_min=r_min)
    counted, verdicts = Counted(system.rhs), []
    if hasattr(system.rhs, "stage"):
        def stage(y, h, d, row):
            state = system.rhs.stage(y, h, d, row)
            verdicts.append(state is not None)
            return state
        counted.stage = stage
    new, new_warnings = _recorded(lambda: integrate(
        dataclasses.replace(system, rhs=counted), s0, t_end))
    old, old_warnings = _recorded(lambda: integrate_oracle(
        lambda s: _kepler_rhs_oracle(s, k=k, r_min=r_min), s0, t_end,
        IntegratorConfig()))
    for a, b in zip(new, old):
        assert a is b is None or np.array_equal(a, b)
    assert new_warnings == old_warnings
    stats = new[3]
    assert stats["domain_retries"] == counted.domain_errors
    if k > 1e100:
        assert verdicts == [] and counted.calls == stats["rhs_evals"]
    else:
        assert len(verdicts) == stats["rhs_evals"] - 2
        assert counted.calls == 2 + verdicts.count(False)
    if case.startswith("e0"):
        assert all(verdicts) and new[4] == ""
        assert stats["rhs_evals"] == call_count(stats, len(new[0]) - 1)
    if case == "stage-overflow":
        assert ("overflow encountered in add" in
                [message for _, message in old_warnings])
    assert (stats["domain_retries"] > 0) == (case == "collision-1e-3")


_NO_DENSE = IntegratorConfig(rel_tol=1e-11, dense_output=False)


@pytest.mark.parametrize("route", ["floats", "array"])
@pytest.mark.parametrize("e", [0.0, 0.6, 0.9])
def test_loop_without_dense_output_matches_oracle_bit_for_bit(route, e):
    # kepler_field's own rhs takes the float route; a replaced one (a
    # tracer's, say) is called on the array stage states
    s0 = _apocentre(1.0, e)
    system = kepler_field()
    counted = Counted(system.rhs)
    if route == "array":
        system = dataclasses.replace(system, rhs=counted)
    traj, new_warnings = _run_with_warnings(
        lambda: integrate(system, s0, 4 * np.pi, config=_NO_DENSE))
    (times, states, dense, stats), old_warnings = _run_with_warnings(
        lambda: integrate_oracle(_kepler_rhs_oracle, s0, 4 * np.pi,
                                 _NO_DENSE))
    assert traj.dense is None and dense is None
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert traj.stats == stats
    assert new_warnings == old_warnings
    assert stats["rhs_evals"] == call_count(stats, len(times) - 1,
                                            dense_output=False)
    assert counted.calls == (stats["rhs_evals"] if route == "array" else 0)


def test_default_integrate_forms_the_dense_output_stages():
    # 2 set-up calls, 12 per accepted or rejected step, 3 per accepted step
    traj = integrate(kepler_field(), _apocentre(1.0, 0.6), 4 * np.pi)
    accepted, stats = len(traj.times) - 1, traj.stats
    assert traj.dense.shape == (accepted, 6, 7)
    assert stats["rhs_evals"] == 2 + 12 * (
        accepted + stats["rejected_steps"]) + 3 * accepted


@pytest.mark.parametrize("r_min", [1e-12, 1e-3])
@pytest.mark.parametrize("s0, t_end", [
    ((1.0, 0, 0, -0.5, 0, 0), 2.0), ((1.0, 0, 0, 0, 1e-3, 0), 1.2),
], ids=["radial-infall", "near-collision"])
def test_dense_output_switch_keeps_the_nodes_near_collision(s0, t_end,
                                                            r_min):
    # the same steps and step-size history, dense output or none; a run
    # that fails, fails at the same time and state
    def run(dense_output):
        try:
            traj = integrate(kepler_field(r_min=r_min), np.array(s0), t_end,
                             config=IntegratorConfig(
                                 dense_output=dense_output))
        except IntegrationError as exc:
            return [exc.t], exc.state[None], exc.stats
        return traj.times, traj.states, traj.stats

    (dense_t, dense_s, dense_stats), (t, s, stats) = run(True), run(False)
    assert np.array_equal(t, dense_t) and np.array_equal(s, dense_s)
    for key in ("rejected_steps", "domain_retries"):
        assert stats[key] == dense_stats[key]
    assert stats["rhs_evals"] < dense_stats["rhs_evals"]


def _linear_field(dim, seed):
    """ds/dt = A s for a random A with eigenvalues near the imaginary axis."""
    rng = rng_from_seed(seed)
    B = rng.normal(size=(dim, dim))
    A = (B - B.T) + 0.05 * rng.normal(size=(dim, dim))

    def rhs(s):
        return A @ np.asarray(s, dtype=float)

    return DynamicalSystem(f"linear-{dim}", dim, rhs)


@pytest.mark.parametrize("system, s0, t_end", [
    (radial_reduced_field(E=0.5), np.array([1.0, 0.4]), 5.0),
    (radial_reduced_field(l=0.7, variant="angular"), np.array([1.0, -0.4]),
     3.0),
    (calogero_moser_field(0.4), np.array([-1.0, 1.0, 0.5, -0.2]), 4.0),
    (free3d_field(), np.array([1.0, -2.0, 0.5, 0.3, 0.1, -0.7]), 5.0),
    (conformal_kepler_field(), sample_states_sigma0(1, seed=5)[0], 3.0),
    (reparametrized_field(), sample_states_sigma0(1, seed=6)[0], 3.0),
    (completed_oscillator_field(E=-0.5),
     np.array([1.0, 0.2, -0.3, 0.1, 0.0, 0.4, 0.2, -0.1]), 6.0),
    (_linear_field(9, 1), np.linspace(-1.0, 1.0, 9), 2.0),
    (_linear_field(16, 2), np.linspace(-1.0, 1.0, 16), 1.0),
    (_linear_field(17, 3), np.linspace(-1.0, 1.0, 17), 1.0),
    (_linear_field(130, 4), np.linspace(-1.0, 1.0, 130), 0.05),
], ids=["radial-2", "radial-angular-2", "calogero-4", "free-6",
        "conformal-8", "reparametrized-8", "oscillator-8", "linear-9",
        "linear-16", "linear-17", "linear-130"])
def test_adapter_matches_oracle_on_every_field(system, s0, t_end):
    # every field but kepler's is called on array stage states
    assert not hasattr(system.rhs, "stage")
    traj = integrate(system, s0, t_end)
    times, states, dense, _ = integrate_oracle(system.rhs, s0, t_end,
                                               IntegratorConfig())
    assert len(times) > 5
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.dense, dense)
    _assert_stepper_matches_oracle(system, s0, t_end, IntegratorConfig())

@pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan, -1e300])
def test_non_finite_error_norm_matches_oracle_with_its_warnings(value):
    # an oscillator whose rhs turns non-finite (or huge) past s0 = 0.9:
    # every step that reaches there is rejected until the step underflows
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
    counted = Counted(rhs)
    new, new_warnings = run(lambda: integrate(
        DynamicalSystem("osc", 2, rhs=counted), s0, 3.0, config=cfg))
    old, old_warnings = run(lambda: integrate_oracle(rhs, s0, 3.0, cfg))
    assert new_warnings == old_warnings
    # inf meets inf in the error estimate's dot; NaN raises none, and
    # -1e300 overflows nothing (the error scale holds |y_new|)
    assert bool(np.isinf(value)) == bool(old_warnings)
    assert new.t == old.t and np.array_equal(new.state, old.state)
    assert str(new) == str(old)
    assert new.stats["rhs_evals"] == counted.calls


def _stage_kernel(floats):
    """A fused stage kernel over `floats`, an rhs of a list of floats: the
    stage state y + h d formed in floats, its rhs packed into the row, or
    None where a component of the state is not finite."""
    def stage(y, h, d, row):
        s = [a + h * b for a, b in zip(y, d)]
        if not all(map(math.isfinite, s)):
            return None
        struct.pack_into(f"{len(s)}d", row, 0, *floats(s))
        return s
    return stage


@pytest.mark.parametrize("case", ["ordinary", "zero", "err5-overflows",
                                  "h-e5-overflows", "nan", "subnormal"])
def test_error_norm_matches_oracle_with_its_warnings(case):
    # the norm's scalar arithmetic runs in Python floats only where NumPy's
    # scalars would raise no warning: the same value and the same warnings
    K = rng_from_seed(7).normal(size=(16, 6))
    h = 0.05
    if case == "zero":
        K[:] = 0.0
    elif case == "err5-overflows":
        K[0, 0] = 1e308  # inf / 1e-12 overflows; then inf / inf
    elif case == "h-e5-overflows":
        h = 1e300
    elif case == "nan":
        K[3, 2] = np.nan
    elif case == "subnormal":
        K *= 1e-170
    scale = [1e-12 + 1e-11 * abs(y) for y in (1.6, 0.1, 0.0, -0.2, 0.5, 0.0)]

    def run(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = float(fn())
        return value, [(w.category, str(w.message)) for w in caught]

    new, new_warnings = run(lambda: integrate_module._error_norm(
        K[:13], h, scale))
    old, old_warnings = run(lambda: error_oracle(K, h, np.array(scale)))
    assert np.array_equal(new, old, equal_nan=True)
    assert new_warnings == old_warnings
    assert bool(old_warnings) == case.endswith("overflows")


@pytest.mark.parametrize("route", ["floats", "array"])
def test_stage_state_overflow_matches_oracle_with_its_warnings(route):
    # x' = v from (1.7e308, 1e306): near t = 9.77 a stage state
    # y + h (a . K) overflows to inf, which NumPy flags ("overflow
    # encountered in add") where the float arithmetic does not, so the float
    # route's kernel declines that stage and the loop forms it in NumPy.
    # The error of a linear drift is 0, but a step whose new state
    # overflowed is rejected, until the step underflows
    def rhs(s):
        return np.array([s[1], 0.0])

    if route == "floats":
        rhs.stage = _stage_kernel(lambda s: [s[1], 0.0])

    def run(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IntegrationError) as exc:
                fn()
        # `@` and `ndarray.dot` flag an overflow inside the product a
        # different number of times; the elementwise warnings keep their
        # order
        return exc.value, [(w.category, str(w.message)) for w in caught
                           if not str(w.message).endswith(("dot", "matmul"))]

    s0 = np.array([1.7e308, 1e306])
    new, new_warnings = run(lambda: integrate(
        DynamicalSystem("drift", 2, rhs=rhs), s0, 10.0))
    old, old_warnings = run(
        lambda: integrate_oracle(rhs, s0, 10.0, IntegratorConfig()))
    assert new_warnings == old_warnings
    assert ("overflow encountered in add" in
            [message for _, message in old_warnings])
    assert new.t == old.t and np.array_equal(new.state, old.state)
    assert str(new) == str(old) and new.stats == old.stats
    # it stops short of the overflow, naming the rejected attempts
    assert 9.7 < new.t < 9.8 and np.all(np.isfinite(new.state))
    assert "underflowed" in str(new)
    count = int(str(new).split("rhs returned inf or NaN, or the error "
                               "estimate overflowed, on ")[1].split()[0])
    assert 0 < count == new.stats["rejected_steps"]


@pytest.mark.parametrize("route", ["floats", "array"])
def test_a_finite_state_whose_sum_overflows_is_accepted(route):
    # a new state is tested for finiteness by its sum first: the components
    # of (1.5e308, 1.5e308) sum to inf, yet each is finite
    def rhs(s):
        return np.array([1.0, 0.0])

    if route == "floats":
        rhs.stage = _stage_kernel(lambda s: [1.0, 0.0])

    traj = integrate(DynamicalSystem("drift", 2, rhs=rhs),
                     np.array([1.5e308, 1.5e308]), 1.0)
    assert traj.times[-1] == 1.0 and traj.stats["rejected_steps"] == 0
    assert np.all(traj.states == 1.5e308)


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


def test_root_search_that_never_settles_returns_its_last_iterate():
    # f' = 0 everywhere, so every iteration bisects; from a bracket of
    # +-1e300 the steps stay far above tol for all _ROOT_MAX_ITER of them,
    # and the search stops there with its last iterate and no warning
    calls = []

    def fdf(x):
        calls.append(x)
        return x - 1.0, np.zeros_like(x)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = _safeguarded_newton(fdf, np.float64(-1e300), np.float64(1e300),
                                   0.0, 1e-14)
    assert len(calls) == _ROOT_MAX_ITER == 64
    assert root == 5.4210108624275225e280


def _refused_past_the_start(s):
    # ds/dt = 1, with every state past s = 0 outside the field's domain
    if s[0] > 0.0:
        raise DomainError(f"s = {s[0]:g} > 0")
    return np.ones_like(s)


def test_initial_step_scales_an_rms_whose_squares_overflow():
    # (f0 / scale)^2 overflows for v = 1e150 at x = 1; the RMS taken as
    # m sqrt(mean((z / m)^2)), m = max |z|, keeps the first step finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(free3d_field(), np.array([1.0, 0, 0, 1e150, 0, 0]),
                         1e-150)
    assert traj.times[-1] == 1e-150 and traj.states[-1, 0] == 2.0
    z = np.array([1e161, 0.0, 0.0, 1e161, 0.0, 0.0])
    assert integrate_module._rms(z) == 1e161 * np.sqrt(np.mean(
        (z / 1e161) ** 2))
    # everywhere else it is the plain RMS, bit for bit, with its warnings
    rng = rng_from_seed(11)
    for z in rng.normal(size=(2000, 6)) * 10.0 ** rng.integers(
            -300, 150, (2000, 1)):
        assert _bits(integrate_module._rms(z)) == _bits(
            np.sqrt(np.mean(z ** 2)))
    for z in ([np.inf, 1.0], [np.nan, 1.0], [np.inf, 1e300]):
        z = np.array(z)
        got, got_warnings = _run_with_warnings(
            lambda: integrate_module._rms(z))
        want, want_warnings = _run_with_warnings(
            lambda: np.sqrt(np.mean(z ** 2)))
        assert _bits(got) == _bits(want) and got_warnings == want_warnings
    assert got_warnings  # 1e300 squared overflows next to the inf


def test_initial_step_falls_back_when_its_probe_is_refused():
    # the probe state y0 + h0 f0 raises, so the step is h0 * 1e-3, with
    # h0 = 1e-6 for a zero start
    cfg = IntegratorConfig()
    assert _initial_step(_refused_past_the_start, np.zeros(1), np.ones(1),
                         1.0, cfg) == (1e-09, True)
    with pytest.raises(IntegrationError) as exc:
        integrate(DynamicalSystem("refused", 1, rhs=_refused_past_the_start),
                  np.zeros(1), 1.0, config=cfg)
    # the probe's refusal is the first of the domain retries
    assert exc.value.stats["domain_retries"] == 20
    assert exc.value.t == 0.0
    assert "domain error persisted" in str(exc.value)
