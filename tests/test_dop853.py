"""The DOP853 pair against SciPy's `DOP853`, from which its coefficients
are copied: the same tableau bit for bit, the same step, error norm and
dense output to rounding, and the same accepted steps along whole orbits.
It also keeps DP5's domain-error halving and failure records.

ksunfold's step loop keeps DP5's controller for both pairs, and it differs
from SciPy's in two ways: SciPy caps the growth factor at 1 on the step
after a rejection, and it takes the next step from the rounded t_new - t
rather than from the step it tried.  The error norm's 1/8 power of an
estimate that is about 1e-11 of the stage values magnifies such an ulp, so
a free-running `solve_ivp` parts from ksunfold after 3 to 5 steps: by
3e-8 to 6e-8 in time over two to ten periods of the circular orbit, which
has no rejections, and by far more after a rejection.  The step-by-step tests below therefore
restart SciPy's stepper from each of ksunfold's accepted states.
"""

import functools
import math
import importlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import DOP853

from ksunfold import (
    DomainError,
    DynamicalSystem,
    IntegrationError,
    IntegratorConfig,
    integrate,
    kepler_field,
    unfold_kepler,
)

integrate_module = importlib.import_module("ksunfold.integrate")

_TOL = {"rel_tol": 1e-11, "abs_tol": 1e-12}
_CONFIG = IntegratorConfig(method="dop853", **_TOL)
_EPS = np.finfo(float).eps
_KEPLER = kepler_field()


def _apocentre(e):
    """Kepler state at apocentre of the a = 1, k = 1 orbit of eccentricity e."""
    return [1.0 + e, 0, 0, 0, np.sqrt((1.0 - e) / (1.0 + e)), 0]


def _leg_span(p0, tau_end):
    """The span of the unfold's direct leg: the unfold's, or 95% of the
    collision time."""
    res = unfold_kepler(np.array(p0), tau_end, compare=False)
    t_col = res.upstairs.collision_time()
    return 0.95 * t_col if t_col is not None else float(res.ts[-1])


# the gallery orbits over the direct leg's span, and the `simulate-direct`
# orbits over ten periods
_ORBITS = {
    "circular": ([1.0, 0, 0, 0, 1.0, 0], (2 * np.pi, None)),
    "eccentric": ([1.0, 0, 0, 0, 0.8, 0], (2 * np.pi / np.sqrt(1.36), None)),
    "collision": ([1.0, 0, 0, -0.5, 0, 0], (6.0, None)),
    "simulate-e0": (_apocentre(0.0), (None, 20 * np.pi)),
    "simulate-e0.6": (_apocentre(0.6), (None, 20 * np.pi)),
    "simulate-e0.9": (_apocentre(0.9), (None, 20 * np.pi)),
}


@functools.lru_cache(maxsize=None)
def _orbit(name):
    p0, (tau_end, t_end) = _ORBITS[name]
    t_end = t_end if tau_end is None else _leg_span(p0, tau_end)
    p0 = np.array(p0, dtype=float)
    return p0, t_end, integrate(_KEPLER, p0, t_end, config=_CONFIG,
                                monitors=())


def _scipy_rhs(t, y):
    return _KEPLER.rhs(y)


def test_tableau_is_scipys():
    assert np.array_equal(integrate_module._A8, dop853_coefficients.A)
    assert np.array_equal(integrate_module._E5, dop853_coefficients.E5)
    assert np.array_equal(integrate_module._E3, dop853_coefficients.E3)
    assert np.array_equal(integrate_module._D8, dop853_coefficients.D)


def _random_state(seed):
    rng = np.random.default_rng(seed)
    return np.array([1.0, 0, 0, 0, 1.0, 0]) + 0.3 * rng.standard_normal(6)


def _scipy_step(y0, h):
    """SciPy's DOP853 stepper after one step of size h from y0."""
    ref = DOP853(_scipy_rhs, 0.0, y0, h, rtol=_TOL["rel_tol"],
                 atol=_TOL["abs_tol"], first_step=h)
    ref.step()
    assert ref.t == h and ref.nfev == 1 + 12  # accepted at once
    return ref


@pytest.mark.parametrize("seed", range(6))
def test_one_step_matches_scipy(seed):
    y0 = _random_state(seed)
    # a span shorter than the starting-step heuristic is one step
    h = 0.01
    ours = integrate(_KEPLER, y0, h, config=_CONFIG, monitors=())
    assert len(ours.times) == 2 and ours.times[1] == h
    ref = _scipy_step(y0, h)
    scale = np.max(np.abs(ref.y))
    assert np.max(np.abs(ours.states[1] - ref.y)) <= 4 * _EPS * scale
    # k0, the step-size probe, 12 stages and 3 dense-output stages
    assert ours.stats["rhs_evals"] == 2 + 12 + 3
    t = np.linspace(0.0, h, 9)
    assert np.max(np.abs(ours.eval(t) - ref.dense_output()(t).T)) <= (
        4 * _EPS * scale)


@pytest.mark.parametrize("seed", range(6))
def test_error_norm_matches_scipy(seed):
    # an accepted step (error norms 1.6e-5 to 0.17 over the seeds), on
    # SciPy's stages
    y0 = _random_state(seed)
    h = 0.07
    ref = _scipy_step(y0, h)
    scale = _TOL["abs_tol"] + _TOL["rel_tol"] * np.maximum(np.abs(y0),
                                                          np.abs(ref.y))
    want = ref._estimate_error_norm(ref.K, h, scale)
    got = integrate_module._TABLEAUS["dop853"].error(ref.K, h, scale)
    assert 0.0 < want < 1.0
    assert abs(got - want) <= 4 * _EPS * want


@pytest.mark.parametrize("name", sorted(_ORBITS))
def test_every_accepted_step_matches_scipy(name):
    p0, t_end, ours = _orbit(name)
    ref = DOP853(_scipy_rhs, 0.0, p0, t_end, rtol=_TOL["rel_tol"],
                 atol=_TOL["abs_tol"])
    rhs = _KEPLER.rhs
    for i in range(len(ours.times) - 1):
        # SciPy's stepper restarted from ksunfold's accepted state
        ref.t, ref.y, ref.f = ours.times[i], ours.states[i], rhs(ours.states[i])
        ref.h_abs = ours.times[i + 1] - ours.times[i]
        nfev = ref.nfev
        ref.step()
        assert ref.nfev - nfev == 12, f"SciPy rejected step {i}"
        assert ref.t == ours.times[i + 1]
        # ksunfold steps by the step it tried and SciPy by the rounded
        # t_new - t: they differ by up to an ulp of t, times the slope
        scale = (max(1.0, np.max(np.abs(ref.y)))
                 + ref.t * np.max(np.abs(rhs(ref.y))))
        assert np.max(np.abs(ref.y - ours.states[i + 1])) <= 4 * _EPS * scale
        mid = 0.5 * (ours.times[i] + ours.times[i + 1])
        assert np.max(np.abs(ref.dense_output()(mid) - ours.eval(mid))) <= (
            4 * _EPS * scale)


@pytest.mark.parametrize("name", sorted(_ORBITS))
def test_free_running_solve_ivp_takes_as_many_steps(name):
    p0, t_end, ours = _orbit(name)
    ref = solve_ivp(_scipy_rhs, (0.0, t_end), p0, method="DOP853",
                    rtol=_TOL["rel_tol"], atol=_TOL["abs_tol"])
    # the first steps agree before the controllers part
    assert np.allclose(ours.times[:3], ref.t[:3], rtol=1e-14, atol=0)
    # SciPy's growth cap after a rejection saves one step of 557 here
    extra = {"simulate-e0.6": 1}.get(name, 0)
    assert len(ours.times) == len(ref.t) + extra


class _Counted:
    """A right-hand side that counts its calls and its DomainErrors."""

    def __init__(self, f):
        self.f, self.calls, self.domain_errors = f, 0, 0

    def __call__(self, s):
        self.calls += 1
        try:
            return self.f(s)
        except DomainError:
            self.domain_errors += 1
            raise


@pytest.mark.parametrize("r_min", [1e-12, 1e-3])
def test_collision_fails_where_dp5_fails_with_the_same_record(r_min):
    # at 1e-3 the rhs raises DomainError near r = 0 and the step is halved;
    # at the default the error control shrinks the step to underflow first
    s0 = np.array([1.0, 0, 0, -0.5, 0, 0])
    failures = {}
    for method in ("dp5", "dop853"):
        counted = _Counted(kepler_field(r_min=r_min).rhs)
        with pytest.raises(IntegrationError) as exc:
            integrate(DynamicalSystem("kepler", 6, rhs=counted), s0, 2.0,
                      config=IntegratorConfig(method=method))
        assert exc.value.stats["rhs_evals"] == counted.calls
        assert exc.value.stats["domain_retries"] == counted.domain_errors
        assert (counted.domain_errors > 0) == (r_min > 1e-12)
        assert ("domain error persisted" in str(exc.value)) == (r_min > 1e-12)
        failures[method] = exc.value.t
    assert abs(failures["dop853"] - failures["dp5"]) < 1e-9


# --- the DOP853 step loop as it ran one step at a time in arrays ------------

def _error_oracle(K, h, scale):
    err5 = integrate_module._E5.dot(K[:13]) / scale
    err3 = integrate_module._E3.dot(K[:13]) / scale
    e5, e3 = err5.dot(err5), err3.dot(err3)
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return h * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size)


def _dense_oracle(K, h, y, y_new):
    dy = y_new - y
    F = np.empty((7, y.size))
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2.0 * dy - h * (K[12] + K[0])
    F[3:] = h * integrate_module._D8.dot(K)
    return F.T.dot(integrate_module._DOP853_POWERS)


def _initial_step_oracle(f, y0, f0, t_end, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = f(y0 + h0 * f0)
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    except DomainError:
        return min(h0 * 1e-3, t_end), True
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, t_end), False


def _integrate_oracle(f, s0, t_end, cfg, t0=0.0):
    """The DOP853 step loop as it was before the step's elementwise work
    moved to Python floats: (times, states, dense, stats).  A failure
    raises IntegrationError with the loop's message and counts."""
    m = integrate_module
    A = m._A8
    stages = [(A[i, :i], i) for i in range(1, 13)]
    extra = [(A[i, :i], i) for i in range(13, 16)]
    y = np.array(s0, dtype=float).reshape(-1)
    t = t0
    k0 = f(y)
    h, probe_failed = _initial_step_oracle(f, y, k0, t_end - t0, cfg)
    nfev, rejected, retries = 2, 0, int(probe_failed)
    ts, ys, dense = [t], [y.copy()], []
    K = np.empty((16, y.size))
    abs_y = np.abs(y)
    attempts = nonfinite = 0
    last_domain_error = None

    def fail(message):
        stats = {"rhs_evals": nfev, "rejected_steps": rejected,
                 "domain_retries": retries}
        counts = ", ".join(f"{k}={v}" for k, v in stats.items())
        note = (f"; rhs returned inf or NaN, or the error estimate "
                f"overflowed, on {nonfinite} rejected attempts"
                if nonfinite else "")
        return IntegrationError(f"{message} ({counts}){note}", t=t, state=y,
                                stats=stats)

    while t < t_end:
        attempts += 1
        if attempts > cfg.max_steps:
            raise fail(f"step count exceeded max_steps={cfg.max_steps}")
        if h < 16.0 * _EPS * max(abs(t), 1.0):
            detail = (f": rhs domain error persisted ({last_domain_error})"
                      if last_domain_error is not None else "")
            raise fail(f"step size {h:.3g} underflowed at t={t:.6g}{detail}")
        clamped = t + h >= t_end
        h_step = t_end - t if clamped else h
        K[0] = k0
        try:
            for row, i in stages:
                y_new = y + h_step * row.dot(K[:i])
                K[i] = f(y_new)
            abs_new = np.abs(y_new)
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_new)
            err = _error_oracle(K, h_step, scale)
            if err <= 1.0:
                for row, i in extra:
                    K[i] = f(y + h_step * row.dot(K[:i]))
        except DomainError as exc:
            nfev += i
            retries += 1
            h = h_step / 2.0
            last_domain_error = exc
            continue
        nfev += i
        if err <= 1.0:
            t_new = t_end if clamped else t + h_step
            dense.append(_dense_oracle(K, h_step, y, y_new))
            ts.append(t_new)
            ys.append(y_new)
            t, y, k0, abs_y = t_new, y_new, K[12].copy(), abs_new
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.125)
            h = h_step * factor
        else:
            rejected += 1
            nonfinite += not math.isfinite(err)
            h = h_step * max(0.2, 0.9 * err**-0.125)
    stats = {"rhs_evals": nfev, "rejected_steps": rejected,
             "domain_retries": retries}
    return np.array(ts), np.array(ys), np.array(dense), stats


@pytest.mark.parametrize("wrap", [False, True], ids=["kepler", "replaced"])
@pytest.mark.parametrize("name", ["circular", "eccentric", "collision",
                                  "simulate-e0.9"])
def test_direct_leg_matches_oracle_bit_for_bit(name, wrap):
    # the gallery legs, and ten periods at e = 0.9 (over 256 steps, so the
    # dense output is formed in more than one batch), through the Kepler
    # float route and through a replaced rhs (as a tracer or a counting
    # wrapper installs), which sees every call
    p0, t_end = np.array(_ORBITS[name][0]), _orbit(name)[1]
    counted = _Counted(_KEPLER.rhs)
    system = DynamicalSystem("kepler", 6, rhs=counted) if wrap else _KEPLER
    traj = integrate(system, p0, t_end, config=_CONFIG, monitors=())
    times, states, dense, stats = _integrate_oracle(_KEPLER.rhs, p0, t_end,
                                                    _CONFIG)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.dense, dense)
    assert traj.stats == stats
    assert counted.calls == (stats["rhs_evals"] if wrap else 0)


@pytest.mark.parametrize("wrap", [False, True], ids=["kepler", "replaced"])
def test_domain_retries_match_oracle(wrap):
    # the rhs raises DomainError inside r_min = 1e-3 and the step is halved
    # until it underflows: the same failure, state, message and counts
    s0 = np.array([1.0, 0, 0, -0.5, 0, 0])
    system = kepler_field(r_min=1e-3)
    counted = _Counted(system.rhs)
    if wrap:
        system = DynamicalSystem("kepler", 6, rhs=counted)
    with pytest.raises(IntegrationError) as new:
        integrate(system, s0, 2.0, config=_CONFIG)
    with pytest.raises(IntegrationError) as old:
        _integrate_oracle(kepler_field(r_min=1e-3).rhs, s0, 2.0, _CONFIG)
    assert new.value.t == old.value.t
    assert np.array_equal(new.value.state, old.value.state)
    assert str(new.value) == str(old.value)
    assert new.value.stats == old.value.stats
    assert old.value.stats["domain_retries"] > 0
    if wrap:
        assert counted.calls == old.value.stats["rhs_evals"]
        assert counted.domain_errors == old.value.stats["domain_retries"]
