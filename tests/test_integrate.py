"""Adaptive DP5(4) integrator: accuracy, order, dense output, failure modes."""

import csv
import numpy as np
import pytest

from ksunfold import (
    DomainError,
    DynamicalSystem,
    IntegrationError,
    IntegratorConfig,
    completed_oscillator_field,
    find_return_time,
    integrate,
    integrate_fixed,
    kepler_field,
    free3d_field,
)
from ksunfold.integrate import _B5, _P
from ksunfold.sampling import rng_from_seed


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
