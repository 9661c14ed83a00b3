"""Adaptive DP5(4) integrator: accuracy, order, dense output, failure modes."""

import csv
import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

from ksunfold import (
    DomainError,
    DynamicalSystem,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    completed_oscillator_field,
    find_return_time,
    integrate,
    integrate_fixed,
    kepler_field,
    free3d_field,
    unfold_kepler,
)
from ksunfold.integrate import (
    _A, _B5, _CSV_BLOCK, _E, _MAX_FACTOR, _MIN_FACTOR, _ORDER_EXP, _P, _SAFETY,
    _safeguarded_newton,
)
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
