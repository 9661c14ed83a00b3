"""`OscillatorFlow.deriv` and `eval_and_deriv` by value: the vector field
(g U, 2 g E Y, 2 g |Y|^2) of the flow's own states, which a centred
difference of `eval` confirms.  The period and collision searches take
their slopes from `deriv`, and Newton's method still converges with a
wrong slope, so only these values show a wrong field."""

import math

import numpy as np
import pytest

from ksunfold import unfold_kepler

# the three gallery orbits (one upstairs period, the collision orbit to
# tau = 6) and a hyperbolic orbit off the apsides
_ORBITS = {
    "circular": ([1.0, 0, 0, 0, 1.0, 0], 2 * math.pi),
    "eccentric": ([1.0, 0, 0, 0, 0.8, 0], 2 * math.pi / math.sqrt(1.36)),
    "collision": ([1.0, 0, 0, -0.5, 0, 0], 6.0),
    "hyperbolic": ([1.0, 0, 0, 0, 2.0, 0.3], 2.0),
}

# a centred difference's step, and its bound relative to 1 + |deriv|: the
# truncation error h^2 |f'''| / 6 and the rounding eps |f| / h stay under
# 1.4e-8 on these orbits
_H = 1e-4
_DIFF_TOL = 1e-6


def _flow(orbit):
    p0, tau_end = _ORBITS[orbit]
    return unfold_kepler(np.array(p0), tau_end, compare=False).upstairs


def _field(up, state):
    """(g U, 2 g E Y, 2 g |Y|^2) at (..., 9) states (Y, U, t)."""
    Y, U = state[..., :4], state[..., 4:8]
    r2 = np.sum(Y * Y, axis=-1)[..., None]
    return np.concatenate([up.g * U, 2.0 * up.g * up.E * Y, 2.0 * up.g * r2],
                          axis=-1)


def _assert_field(up, state, deriv):
    want = _field(up, state)
    assert deriv.shape == want.shape
    np.testing.assert_allclose(deriv, want, rtol=4 * np.finfo(float).eps,
                               atol=0.0)


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_deriv_is_the_field_of_the_evaluated_state(orbit):
    up = _flow(orbit)
    taus = up.times[::16]
    _assert_field(up, up.eval(taus), up.deriv(taus))
    # one tau at a time, which takes the float route
    for tau in taus[::4]:
        state, deriv = up.eval_and_deriv(float(tau))
        np.testing.assert_array_equal(state, up.eval(float(tau)))
        np.testing.assert_array_equal(deriv, up.deriv(float(tau)))
        _assert_field(up, state, deriv)


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_deriv_agrees_with_a_centred_difference_of_eval(orbit):
    up = _flow(orbit)
    taus = up.times[1:-1:8]
    diff = (up.eval(taus + _H) - up.eval(taus - _H)) / (2.0 * _H)
    state, deriv = up.eval_and_deriv(taus)
    np.testing.assert_array_equal(state, up.eval(taus))
    np.testing.assert_array_equal(deriv, up.deriv(taus))
    assert np.max(np.abs(diff - deriv) / (1.0 + np.abs(deriv))) < _DIFF_TOL
