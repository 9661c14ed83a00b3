"""The DOP853 pair against SciPy's `DOP853`, from which its coefficients
are copied: the same tableau bit for bit, the same step, error norm and
dense output to rounding, and the same accepted steps along whole orbits;
and the step loop against its array oracle, bit for bit.

ksunfold's step controller differs from SciPy's in three ways: its safety
factor is 0.8 where SciPy's is 0.9, SciPy caps the growth factor at 1 on
the step after a rejection, and it takes the next step from the rounded
t_new - t rather than from the step it tried.  The error norm's 1/8 power
of an estimate that is about 1e-11 of the stage values magnifies such an
ulp, so a free-running `solve_ivp` at ksunfold's safety factor parts from
ksunfold after 5 steps: by 2.6e-8 to 3.5e-8 in time over two to ten
periods of the circular orbit, which has no rejections, and by far more
after a rejection.  The step-by-step tests below therefore restart
SciPy's stepper from each of ksunfold's accepted states.
"""

import functools

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp import rk as scipy_rk
from scipy.integrate._ivp.rk import DOP853

from ksunfold import (
    DynamicalSystem,
    IntegrationError,
    IntegratorConfig,
    integrate,
    kepler_field,
    unfold_kepler,
)
from dop853_oracle import (
    MAX_FACTOR,
    MIN_FACTOR,
    SAFETY,
    Counted,
    integrate_module,
    integrate_oracle,
)

_TOL = {"rel_tol": 1e-11, "abs_tol": 1e-12}
_CONFIG = IntegratorConfig(**_TOL)
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
    got = integrate_module._error_norm(ref.K, h, scale)
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
def test_free_running_solve_ivp_takes_as_many_steps(monkeypatch, name):
    p0, t_end, ours = _orbit(name)
    # SciPy's controller at ksunfold's safety factor (SciPy's own is 0.9)
    monkeypatch.setattr(scipy_rk, "SAFETY", integrate_module._SAFETY)
    ref = solve_ivp(_scipy_rhs, (0.0, t_end), p0, method="DOP853",
                    rtol=_TOL["rel_tol"], atol=_TOL["abs_tol"])
    # the first steps agree before the controllers part
    assert np.allclose(ours.times[:3], ref.t[:3], rtol=1e-14, atol=0)
    # the controllers part after a few steps (see the module docstring);
    # on this orbit ksunfold ends with one step fewer than SciPy's 602
    extra = {"simulate-e0.6": -1}.get(name, 0)
    assert len(ours.times) == len(ref.t) + extra


def test_eccentric_orbits_reject_few_attempts():
    # ten periods from apocentre at the default config: a safety factor of
    # 0.9 rejected 23-29% of the attempts of every orbit with e >= 0.6
    for e in (0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
        traj = integrate(_KEPLER, np.array(_apocentre(e)), 20 * np.pi,
                         config=IntegratorConfig(), monitors=())
        rejected = traj.stats["rejected_steps"]
        attempts = len(traj.times) - 1 + rejected
        assert rejected <= 0.1 * attempts, (e, rejected, attempts)


def test_the_oracle_steps_with_the_loop_s_controller():
    m = integrate_module
    assert (SAFETY, MIN_FACTOR, MAX_FACTOR) == (m._SAFETY, m._MIN_FACTOR,
                                                m._MAX_FACTOR)


@pytest.mark.parametrize("r_min", [1e-12, 1e-3])
def test_collision_fails_with_the_same_record(r_min):
    # at 1e-3 the rhs raises DomainError near r = 0 and the step is halved;
    # at the default the error control shrinks the step to underflow first
    s0 = np.array([1.0, 0, 0, -0.5, 0, 0])
    counted = Counted(kepler_field(r_min=r_min).rhs)
    with pytest.raises(IntegrationError) as exc:
        integrate(DynamicalSystem("kepler", 6, rhs=counted), s0, 2.0)
    assert exc.value.stats["rhs_evals"] == counted.calls
    assert exc.value.stats["domain_retries"] == counted.domain_errors
    assert (counted.domain_errors > 0) == (r_min > 1e-12)
    assert ("domain error persisted" in str(exc.value)) == (r_min > 1e-12)


@pytest.mark.parametrize("wrap", [False, True], ids=["kepler", "replaced"])
@pytest.mark.parametrize("name", ["circular", "eccentric", "collision",
                                  "simulate-e0.9"])
def test_direct_leg_matches_oracle_bit_for_bit(name, wrap):
    # the gallery legs, and ten periods at e = 0.9 (over 256 steps, so the
    # dense output is formed in more than one batch), through the Kepler
    # float route and through a replaced rhs (as a tracer or a counting
    # wrapper installs), which sees every call
    p0, t_end = np.array(_ORBITS[name][0]), _orbit(name)[1]
    counted = Counted(_KEPLER.rhs)
    system = DynamicalSystem("kepler", 6, rhs=counted) if wrap else _KEPLER
    traj = integrate(system, p0, t_end, config=_CONFIG, monitors=())
    times, states, dense, stats = integrate_oracle(_KEPLER.rhs, p0, t_end,
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
    counted = Counted(system.rhs)
    if wrap:
        system = DynamicalSystem("kepler", 6, rhs=counted)
    with pytest.raises(IntegrationError) as new:
        integrate(system, s0, 2.0, config=_CONFIG)
    with pytest.raises(IntegrationError) as old:
        integrate_oracle(kepler_field(r_min=1e-3).rhs, s0, 2.0, _CONFIG)
    assert new.value.t == old.value.t
    assert np.array_equal(new.value.state, old.value.state)
    assert str(new.value) == str(old.value)
    assert new.value.stats == old.value.stats
    assert old.value.stats["domain_retries"] > 0
    if wrap:
        assert counted.calls == old.value.stats["rhs_evals"]
        assert counted.domain_errors == old.value.stats["domain_retries"]
