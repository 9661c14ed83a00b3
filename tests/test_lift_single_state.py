"""The single-state routes of `ks_lift` and `to_oscillator_chart` (Python
floats) against their array paths, the oracles, byte for byte: signed zeros
count, and where a route declines a state, the array path's values, errors
and warnings are what the caller sees."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ksunfold import (
    KSUnfoldError,
    LiftError,
    ks_lift,
    ks_tangent,
    to_oscillator_chart,
)
from ksunfold.phase_geometry import _SCALAR_R_MAX, _SCALAR_R_MIN, _scalar_lift

_GRID = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.8, 2.0, 1e-3, -3.7]

# plain values, signed zeros, and every float (huge, tiny, inf and NaN)
component = st.one_of(st.sampled_from(_GRID),
                      st.floats(min_value=-1e3, max_value=1e3),
                      st.floats())
vec3 = st.tuples(component, component, component).map(np.array)
vec4 = st.tuples(component, component, component, component).map(np.array)
lam = st.one_of(st.sampled_from([0.0, -0.0, 0.897, -2.5]),
                st.floats(min_value=-10.0, max_value=10.0))


def _outcome(fn, *args):
    """What a call shows its caller: each array's shape and bytes, or the
    error it raised; with the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except (KSUnfoldError, ArithmeticError, ValueError) as exc:
            shown = (type(exc).__name__, str(exc))
        else:
            shown = tuple((a.shape, a.dtype.str, a.tobytes()) for a in out)
    return shown, [(w.category, str(w.message)) for w in caught]


def _batched(fn):
    """`fn` on a batch of one state, unbatched: the array path."""
    def one(*args):
        head = tuple(np.asarray(a)[None] for a in args[:2])
        return tuple(a[0] for a in fn(*head, *args[2:]))
    return one


def _assert_lift_matches_array_path(x, v, lam=0.0):
    assert (_outcome(ks_lift, x, v, lam)
            == _outcome(_batched(ks_lift), x, v, lam))


@settings(max_examples=400)
@given(vec3, vec3, lam)
def test_lift_of_one_state_is_the_array_path_bit_for_bit(x, v, lam):
    _assert_lift_matches_array_path(x, v, lam)


@pytest.mark.parametrize("lam", [0.0, 0.897])
def test_lift_agrees_on_a_grid_of_signed_zeros_and_both_charts(lam):
    # x3 = +-0.0 (chart A), x3 < 0 (chart B), and zero components of v
    values = [0.0, -0.0, 1.0, -0.5]
    for x in itertools.product(values + [-3.7], repeat=3):
        for v in itertools.product(values, repeat=3):
            _assert_lift_matches_array_path(np.array(x), np.array(v), lam)


@pytest.mark.parametrize("r, taken", [
    (np.nextafter(_SCALAR_R_MIN, 0.0), False),
    (_SCALAR_R_MIN, False),
    (np.nextafter(_SCALAR_R_MIN, 1.0), True),
    (np.nextafter(_SCALAR_R_MAX, 0.0), True),
    (_SCALAR_R_MAX, False),
    (np.nextafter(_SCALAR_R_MAX, np.inf), False),
])
@pytest.mark.parametrize("axis", [0, 2])
def test_route_declines_from_its_bounds_on(r, taken, axis):
    # on an axis |x| is r exactly: sqrt(r * r) == r without over- or underflow
    v = np.array([0.3, -0.7, 0.2])
    for sign in (1.0, -1.0):
        x = np.zeros(3)
        x[axis] = sign * r
        assert (_scalar_lift(x, v) is not None) is taken
        _assert_lift_matches_array_path(x, v)
        _assert_lift_matches_array_path(x, v, 0.897)


@pytest.mark.parametrize("bad, taken", [
    (np.nan, False), (np.inf, False), (-np.inf, False),
    (_SCALAR_R_MAX, False), (-1.7e308, False),
    (np.nextafter(_SCALAR_R_MAX, 0.0), True),
])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_route_declines_a_velocity_too_large_or_not_finite(bad, taken, i):
    x, v = np.array([0.3, -1.2, 0.9]), np.array([0.1, 0.7, -0.2])
    v[i] = bad
    assert (_scalar_lift(x, v) is not None) is taken
    _assert_lift_matches_array_path(x, v)


def test_lift_whose_velocity_overflows_raises_as_the_array_path():
    # every |v_i| below the float maximum, but u's sums of products overflow
    _assert_lift_matches_array_path(np.array([1.0, 0.0, 0.0]),
                                    np.full(3, 1.7e308))


def test_route_is_taken_for_an_ordinary_state():
    assert _scalar_lift(np.array([1.0, 0.0, 0.0]),
                        np.array([0.0, 0.8, 0.0])) is not None


@pytest.mark.parametrize("x, v", [
    ([np.nan, 0.0, 1.0], [0.0, 1.0, 0.0]),
    ([np.inf, 0.0, 0.0], [0.0, 1.0, 0.0]),
    ([1.0, 0.0, -np.inf], [0.0, 1.0, 0.0]),
    ([1e300, 0.0, 0.0], [0.0, 1.0, 0.0]),    # |x|^2 overflows
    ([0.0, 0.0, -1e300], [0.0, 1.0, 0.0]),
    ([1e-300, 0.0, 0.0], [0.0, 1.0, 0.0]),   # |x|^2 underflows to 0
    ([0.0, 0.0, -1e-300], [0.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]),
    ([1.0, 0.0, 0.0], [0.0, -np.inf, 0.0]),
], ids=["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300",
        "origin", "nan-v", "inf-v"])
def test_lift_of_a_state_it_cannot_represent_raises_naming_it(x, v):
    x, v = np.array(x), np.array(v)
    good_x, good_v = np.array([0.3, -1.2, 0.9]), np.array([0.1, 0.7, -0.2])
    for xs, vs in ((x, v), (np.stack([good_x, x]), np.stack([good_v, v]))):
        with pytest.raises(LiftError, match="cannot lift x = ") as info:
            ks_lift(xs, vs)
        got_x, got_v = info.value.state
        assert got_x.tobytes() == x.tobytes()
        assert got_v.tobytes() == v.tobytes()


@settings(max_examples=200)
@given(st.tuples(*[st.floats(min_value=-1e3, max_value=1e3)] * 6), lam)
def test_lift_of_one_state_round_trips(xv, lam):
    x, v = np.array(xv[:3]), np.array(xv[3:])
    r = math.hypot(*x)
    assume(r > 1e-3)
    x_back, v_back = ks_tangent(*ks_lift(x, v, lam))
    assert np.max(np.abs(x_back - x)) <= 1e-14 * r
    # max |v_i|, not |v|: |v|^2 underflows for a v of 1e-200
    assert np.max(np.abs(v_back - v)) <= 1e-14 * np.max(np.abs(v)) + 1e-300


@settings(max_examples=400)
@given(vec4, vec4)
def test_chart_of_one_state_is_the_array_path_bit_for_bit(y, u):
    assert (_outcome(to_oscillator_chart, y, u)
            == _outcome(_batched(to_oscillator_chart), y, u))


@pytest.mark.parametrize("y, u", [
    ([0.0, -0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),      # |y| = 0
    ([1e200, 0.0, 0.0, 0.0], [1.0, 0.0, -0.0, 0.0]),    # |y|^2 overflows
    ([1e100, 0.0, 0.0, 0.0], [1e300, 0.0, 0.0, 0.0]),   # U overflows
    ([1.0, -0.0, 0.5, 0.0], [-0.0, 0.0, np.inf, 1.0]),
    ([1.0, -0.0, 0.5, 0.0], [-0.0, 0.0, 2.0, 1.0]),
])
def test_chart_of_one_state_declines_as_the_array_path_fails(y, u):
    y, u = np.array(y), np.array(u)
    assert (_outcome(to_oscillator_chart, y, u)
            == _outcome(_batched(to_oscillator_chart), y, u))
