"""The unfold against an exact Kepler solution.

`_exact_state` solves Kepler's equation in universal variables (Stiefel and
Scheifele, "Linear and Regular Celestial Mechanics") in mpmath at 40
digits, with its own trigonometric and hyperbolic Stumpff forms and their
series near z = 0; it shares no code with `OscillatorFlow` or `_stumpff`.
On the radial collision orbit it continues through r = 0 as the
regularized flow does, and the tests compare only where r > 0.05.
"""

import mpmath
import numpy as np
import pytest

from ksunfold import (
    IntegratorConfig,
    integrate,
    kepler_field,
    scaling_preset,
    unfold_kepler,
)

_DPS = 40


def _stumpff_c2_c3(z):
    """(1 - cos w)/w^2 and (w - sin w)/w^3, w = sqrt(z), in mpmath."""
    if abs(z) < 1:
        # sum_n (-z)^n / (2n + 2)! and / (2n + 3)!, to far below 40 digits
        c2 = c3 = mpmath.mpf(0)
        term = mpmath.mpf(1) / 2
        for n in range(30):
            c2 += term
            term /= 2 * n + 3
            c3 += term
            term *= -z / (2 * n + 4)
        return c2, c3
    if z > 0:
        w = mpmath.sqrt(z)
        return (1 - mpmath.cos(w)) / z, (w - mpmath.sin(w)) / (w * z)
    w = mpmath.sqrt(-z)
    return (mpmath.cosh(w) - 1) / (-z), (mpmath.sinh(w) - w) / (-w * z)


def _exact_state(p0, k, t):
    """Kepler state (x, v) at time t from p0 = (x0, v0) under force constant
    k, by the universal anomaly chi: sqrt(k) t = sigma0 chi^2 c2
    + (1 - alpha r0) chi^3 c3 + r0 chi with z = alpha chi^2, alpha = 2/r0
    - |v0|^2/k and sigma0 = x0.v0/sqrt(k), then the f and g functions."""
    with mpmath.workdps(_DPS):
        x0 = [mpmath.mpf(float(c)) for c in p0[:3]]
        v0 = [mpmath.mpf(float(c)) for c in p0[3:]]
        k = mpmath.mpf(float(k))
        t = mpmath.mpf(float(t))
        r0 = mpmath.sqrt(mpmath.fsum(c * c for c in x0))
        mu = mpmath.sqrt(k)
        sigma0 = mpmath.fsum(a * b for a, b in zip(x0, v0)) / mu
        alpha = 2 / r0 - mpmath.fsum(c * c for c in v0) / k

        def kepler(chi):
            z = alpha * chi * chi
            c2, c3 = _stumpff_c2_c3(z)
            value = (sigma0 * chi * chi * c2 + (1 - alpha * r0) * chi ** 3 * c3
                     + r0 * chi - mu * t)
            radius = (chi * chi * c2 + sigma0 * chi * (1 - z * c3)
                      + r0 * (1 - z * c2))
            return value, radius, c2, c3

        # the value rises with chi (its slope is the radius): bracket the
        # root from chi = 0, then Newton's method, bisecting when it leaves
        lo, hi = mpmath.mpf(0), mu * t / r0
        while kepler(hi)[0] < 0:
            lo, hi = hi, 2 * hi
        chi = (lo + hi) / 2
        for _ in range(200):
            value, radius, _, _ = kepler(chi)
            if value < 0:
                lo = chi
            else:
                hi = chi
            step = chi - value / radius
            new = step if lo <= step <= hi else (lo + hi) / 2
            if abs(new - chi) < mpmath.mpf(10) ** (5 - _DPS) * (1 + abs(chi)):
                chi = new
                break
            chi = new
        _, r, c2, c3 = kepler(chi)
        f = 1 - chi * chi * c2 / r0
        g = t - chi ** 3 * c3 / mu
        fdot = mu * chi * (alpha * chi * chi * c3 - 1) / (r * r0)
        gdot = 1 - chi * chi * c2 / r
        x = [f * a + g * b for a, b in zip(x0, v0)]
        v = [fdot * a + gdot * b for a, b in zip(x0, v0)]
        return np.array([float(c) for c in x + v])


def _default_tau(p0, k):
    """One upstairs period of a bound orbit, as `ksunfold unfold` takes it."""
    E = 0.5 * p0[3:] @ p0[3:] - k / np.linalg.norm(p0[:3])
    return 2.0 * np.pi / np.sqrt(-2.0 * E)


# name: (p0, k, tau_end or None for one upstairs period, gauge, scaling)
_ORBITS = {
    "circular": ([1.0, 0, 0, 0, 1.0, 0], 1.0, None, 0.0, "unit"),
    "eccentric": ([1.0, 0, 0, 0, 0.8, 0], 1.0, None, 0.0, "unit"),
    "eccentric-gauge": ([1.0, 0, 0, 0, 0.8, 0], 1.0, None, 1.3, "unit"),
    "collision": ([1.0, 0, 0, -0.5, 0, 0], 1.0, 6.0, 0.0, "unit"),
    "tilted-k0.5": ([0.8, 0.3, -0.2, -0.1, 0.6, 0.3], 0.5, None, 0.4, "unit"),
    "tilted-k2": ([1.0, 0.5, 0.2, 0.3, -1.1, 0.6], 2.0, None, 2.0, "unit"),
    "hyperbolic": ([1.0, 0, 0, 0, 2.0, 0.3], 1.0, 2.0, 0.0, "unit"),
    "hyperbolic-gyorgyi": ([1.0, 0, 0, 0, 2.0, 0.3], 1.0, 2.0, 0.0,
                           "gyorgyi"),
    "near-parabolic-above": ([1.0, 0, 0, 0, np.sqrt(2.0 + 2e-11), 0], 1.0,
                             3.0, 0.0, "unit"),
    "near-parabolic-below": ([1.0, 0, 0, 0, np.sqrt(2.0 - 2e-11), 0], 1.0,
                             3.0, 0.0, "unit"),
}

# every 32nd grid point; on the collision orbit only those with r > 0.05
_STRIDE = 32
_R_MIN = 0.05
# measured: at most 6.2e-15 (positions) and 8.1e-15 (velocities, on the
# collision orbit) relative to the largest |x| and |v| compared
_UNFOLD_REL_MAX = 5e-14


@pytest.mark.parametrize("name", sorted(_ORBITS))
def test_unfold_matches_the_exact_solution(name):
    p0, k, tau_end, gauge, scaling = _ORBITS[name]
    p0 = np.array(p0)
    res = unfold_kepler(p0, tau_end or _default_tau(p0, k), gauge=gauge, k=k,
                        scaling=scaling_preset(scaling), compare=False)
    idx = np.arange(0, len(res.ts), _STRIDE)
    idx = idx[np.linalg.norm(res.xs[idx], axis=1) > _R_MIN]
    assert len(idx) >= 10
    exact = np.array([_exact_state(p0, k, t) for t in res.ts[idx]])
    for got, want in ((res.xs[idx], exact[:, :3]), (res.vs[idx], exact[:, 3:])):
        err = np.max(np.linalg.norm(got - want, axis=1))
        assert err <= _UNFOLD_REL_MAX * np.max(np.linalg.norm(want, axis=1))


# The direct leg's own error against the exact solution on its comparison
# grid (every 32nd point), measured: DOP853 at rel_tol 1e-11 (the default)
# against the DP5 pair this leg once ran, at rel_tol 1e-10, positions /
# velocities
#   circular   2.1e-11 / 2.1e-11   against 3.5e-9 / 3.5e-9
#   eccentric  2.2e-10 / 6.0e-10   against 1.3e-9 / 3.2e-9
#   collision  3.9e-12 / 9.2e-12   against 7.6e-11 / 1.1e-9
# Each bound is about twice the DOP853 figure at the step controller's
# former safety factor of 0.9 (5.5e-11 / 5.3e-11, 4.4e-10 / 1.1e-9 and
# 3.6e-12 / 1.4e-11).  `dp5_divergence` is the
# sidecar's divergence when the leg ran DP5 at 1e-10; the default leg's may
# not exceed it.
@pytest.mark.parametrize("name, bound, dp5_divergence", [
    ("circular", 1.2e-10, 3.5e-9), ("eccentric", 2.5e-9, 3.25e-9),
    ("collision", 3e-11, 1.36e-9)])
def test_direct_leg_error_against_the_exact_solution(name, bound,
                                                      dp5_divergence):
    p0, k, tau_end, _, _ = _ORBITS[name]
    p0 = np.array(p0)
    res = unfold_kepler(p0, tau_end or _default_tau(p0, k))
    assert res.config == IntegratorConfig()
    t_cmp = res.divergence["t_compared"]
    grid = np.linspace(0.0, t_cmp, 513)[::_STRIDE]
    leg = integrate(kepler_field(k=k), p0, t_cmp)
    exact = np.array([_exact_state(p0, k, t) for t in grid])
    err = np.max(np.abs(leg.eval(grid) - exact))
    assert err <= bound
    div = max(res.divergence["max_position_divergence"],
              res.divergence["max_velocity_divergence"])
    assert div <= dp5_divergence
