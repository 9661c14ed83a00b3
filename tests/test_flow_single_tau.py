"""The closed-form flow's single-tau route (`OscillatorFlow._scalar_clock`,
Python floats) against its array path, the oracle, bit for bit: states,
derivatives, clock inversions and period searches, and, where the route
declines a tau, the same values and warnings as the array path."""

import math
import warnings

import numpy as np
import pytest

import ksunfold.flow as closed_form
from ksunfold import (
    kepler_period_from_unfold,
    ks_lift,
    to_oscillator_chart,
    unfold_kepler,
)
from ksunfold.flow import OscillatorFlow
from ksunfold.integrate import find_return_time
from ksunfold.sampling import rng_from_seed
from ksunfold.systems import scaling_preset


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _apocentre(a, e):
    r = a * (1.0 + e)
    return [r, 0.0, 0.0, 0.0, math.sqrt((1.0 - e) / r), 0.0]


# the 15 orbits of the period benchmark (2.2 tau-periods each), the three
# of the unfold gallery, E > 0 under both scalings, and one orbit of each
# energy sign off the apsides (x . v != 0, so every term of the clock counts)
_ORBITS = {
    **{f"a{a:g}_e{e:g}": (_apocentre(a, e), 2.2 * 2 * math.pi
                          * math.sqrt(a), "unit")
       for a in (0.5, 1.0, 2.0, 4.0, 8.0) for e in (0.0, 0.5, 0.8)},
    "circular": ([1.0, 0, 0, 0, 1.0, 0], 2 * math.pi, "unit"),
    "eccentric": ([1.0, 0, 0, 0, 0.8, 0], 4 * math.pi, "unit"),
    "collision": ([1.0, 0, 0, -0.5, 0, 0], 6.0, "unit"),
    "hyperbolic-unit": ([1.0, 0, 0, 0, 2.0, 0.3], 2.0, "unit"),
    "hyperbolic-gyorgyi": ([1.0, 0, 0, 0, 2.0, 0.3], 2.0, "gyorgyi"),
    "bound-oblique": ([2.0, 0.3, -0.4, 0.1, 0.7, 0.2], 22.0, "unit"),
    "hyperbolic-oblique": ([1.0, 0.2, -0.1, 0.3, 1.9, 0.4], 2.5, "gyorgyi"),
}


def _flow(orbit):
    if orbit == "parabolic":  # E = 0 exactly: every z is 0
        Y0, U0 = to_oscillator_chart(*ks_lift(np.array([1.0, 0, 0]),
                                              np.array([0, 1.3, 0.2])))
        return OscillatorFlow(Y0, U0, 0.0, 1.0, 3.0)
    p0, tau_end, scaling = _ORBITS[orbit]
    return unfold_kepler(np.array(p0), tau_end, compare=False,
                         scaling=scaling_preset(scaling)).upstairs


def _edge_taus(up):
    """tau = 0, +-0, the ends, and the last float on each side of |z| = 1,
    for each sign of tau."""
    alpha = up._coeffs[0]
    taus = [0.0, -0.0, float(up.tau_end), -float(up.tau_end)]
    if alpha != 0.0:
        edge = 1.0 / math.sqrt(abs(alpha))
        for tau in (edge, -edge):
            taus += [np.nextafter(tau, -np.inf), tau, np.nextafter(tau, np.inf)]
    return np.array(taus)


def _taus(up, seed):
    nodes = up.times[::37]
    spread = rng_from_seed(seed).uniform(-0.3, 1.3, 60) * up.tau_end
    return np.concatenate([_edge_taus(up), nodes, [up.times[-1]], spread])


def _branches(up, taus):
    z = up._coeffs[0] * taus * taus
    return {"series" if abs(v) < 1.0 else "trig" if v > 0.0 else "hyperbolic"
            for v in z}


@pytest.fixture
def array_calls(monkeypatch):
    """Count the array path's Stumpff calls."""
    calls = []
    stumpff = closed_form._stumpff

    def counting(z):
        calls.append(np.shape(z))
        return stumpff(z)

    monkeypatch.setattr(closed_form, "_stumpff", counting)
    return calls


@pytest.mark.parametrize("orbit", [*_ORBITS, "parabolic"])
def test_single_tau_route_is_bit_equal_to_the_array_path(orbit, array_calls):
    up = _flow(orbit)
    taus = _taus(up, seed=len(orbit))
    want_states = up.eval(taus)
    want_derivs = up.deriv(taus)
    del array_calls[:]
    for i, tau in enumerate(taus):
        for form in (float(tau), np.float64(tau), np.array(tau)):
            state, deriv = up.eval_and_deriv(form)
            assert state.shape == deriv.shape == (9,)
            assert np.array_equal(_bits(state), _bits(want_states[i]))
            assert np.array_equal(_bits(deriv), _bits(want_derivs[i]))
            assert np.array_equal(_bits(up.eval(form)), _bits(state))
            assert np.array_equal(_bits(up.deriv(form)), _bits(deriv))
    assert array_calls == []  # every tau took the single-tau route
    branches = _branches(up, taus)
    if orbit == "parabolic":
        assert branches == {"series"}
    else:
        assert branches == {"series", "trig" if up.E < 0 else "hyperbolic"}


@pytest.mark.parametrize("orbit", ["eccentric", "collision", "a8_e0.8",
                                   "bound-oblique", "hyperbolic-oblique"])
def test_scalar_tau_of_is_bit_equal_to_the_array_path(orbit):
    p0, tau_end, scaling = _ORBITS[orbit]
    res = unfold_kepler(np.array(p0), tau_end, compare=False,
                        scaling=scaling_preset(scaling))
    t_end = float(res.ts[-1])
    ts = np.concatenate([[0.0, t_end], res.ts[::41],
                         rng_from_seed(3).uniform(0.0, t_end, 40)])
    for t in ts:
        got = res.tau_of(t)
        assert np.ndim(got) == 0
        assert _bits(got) == _bits(res.tau_of(np.array([t]))[0])


class _ArrayPathFlow:
    """A flow whose every evaluation goes through the array path, at one
    point at a time: the oracle of the period search."""

    def __init__(self, up):
        self.up, self.times, self.states = up, up.times, up.states

    def eval(self, tau):
        return self.up.eval(np.array([tau]))[0]

    def deriv(self, tau):
        return self.up.deriv(np.array([tau]))[0]

    def eval_and_deriv(self, tau):
        return self.eval(tau), self.deriv(tau)


@pytest.mark.parametrize("orbit", [name for name in _ORBITS if not
                                   name.startswith(("hyp", "coll"))])
def test_period_search_is_bit_equal_through_the_array_path(orbit,
                                                            array_calls):
    p0, tau_end, _ = _ORBITS[orbit]
    res = unfold_kepler(np.array(p0), tau_end, compare=False)
    del array_calls[:]
    got = kepler_period_from_unfold(res)
    assert array_calls == []
    oracle = _ArrayPathFlow(res.upstairs)
    tau_period = find_return_time(oracle, res.upstairs.states[0], tol=1e-6,
                                  components=range(8))
    want = {"tau_period": tau_period,
            "t_half": float(oracle.eval(tau_period / 2.0)[8]),
            "t_full": float(oracle.eval(tau_period)[8])}
    assert {k: float(v).hex() for k, v in got.items()} == {
        k: float(v).hex() for k, v in want.items()}


def _outcome(fn):
    """(result bits or the exception, the warnings) of fn()."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = tuple(_bits(np.atleast_1d(v)).tolist() for v in fn())
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


# taus the route declines (NaN, infinite, z too large, an overflowing
# clock) and finite ones on either side of where it starts to
_HARD_TAUS = np.concatenate([
    [np.nan, np.inf, -np.inf, 1e200, -1e300, 1.7e308],
    np.geomspace(1.0, 1e160, 45), -np.geomspace(3.0, 1e120, 12),
])


def _outcomes(up):
    """`_outcome` of eval and eval_and_deriv at each hard tau."""
    calls = (lambda tau: (up.eval(tau),), up.eval_and_deriv)
    return [_outcome(lambda: call(tau)) for call in calls for tau in _HARD_TAUS]


@pytest.mark.parametrize("orbit", ["eccentric", "collision",
                                   "hyperbolic-unit", "parabolic"])
def test_declined_taus_give_the_array_paths_values_and_warnings(orbit,
                                                                monkeypatch):
    up = _flow(orbit)
    got = _outcomes(up)
    taken = [up._scalar_clock(float(tau)) is not None for tau in _HARD_TAUS]
    # the array path at the same 0-d input is what every scalar took before
    monkeypatch.setattr(closed_form.OscillatorFlow, "_scalar_clock",
                        lambda self, tau: None)
    assert got == _outcomes(up)
    # the route takes some of these taus and declines others, some of them
    # with warnings
    assert any(taken) and not all(taken)
    assert any(warned for _, warned in got)
