"""The closed-form unfold's column paths against row-major oracles, bit for
bit with NaNs in place.

The flow keeps its samples component-major (one contiguous row per
component), and `_stumpff`, `OscillatorFlow.eval` and `.monitors`,
`UnfoldResult.tau_of`, `_downstairs` and the tangent map compute on those
rows.  The oracles below are the same expressions on arrays that keep each
state as a row of its components: the Stumpff series on (m, 2) rows of
(c2, c3), Y and U from c and s with a trailing axis, |Y|^2 by np.sum over
the last axis, and (..., 3) outputs written column by column.
"""

import numpy as np
import pytest

import ksunfold.flow as closed_form
import ksunfold.reduction as reduction
from ksunfold import ks_tangent, unfold_kepler
from ksunfold.integrate import _ROOT_TOL, _safeguarded_newton
from ksunfold.sampling import rng_from_seed
from ksunfold.systems import (
    OBSERVABLES,
    _chart_energy,
    oscillator_invariant,
    scaling_preset,
)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _same(got, want):
    """Equal bit for bit, so NaNs in the same places, and of one shape."""
    return got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


_SERIES = np.array(closed_form._STUMPFF_ROWS)


def _stumpff_rows(z):
    """`_stumpff` with the series formed on (m, 2) rows of (c2, c3)."""
    z = np.asarray(z, dtype=float)
    c2, c3 = np.empty_like(z), np.empty_like(z)
    small = np.abs(z) < 1.0
    trig = (z > 0.0) & ~small
    hyp = ~(small | trig)
    if small.any():
        zs = z[small][:, None]
        series = _SERIES[0]
        for coeff in _SERIES[1:]:
            series = coeff - zs * series
        c2[small], c3[small] = series.T
    if trig.any():
        w = np.sqrt(z[trig])
        c2[trig] = (1.0 - np.cos(w)) / (w * w)
        c3[trig] = (w - np.sin(w)) / (w * w * w)
    if hyp.any():
        w = np.sqrt(np.abs(z[hyp]))
        c2[hyp] = (np.cosh(w) - 1.0) / (w * w)
        c3[hyp] = (np.sinh(w) - w) / (w * w * w)
    return c2, c3


def _clock_rows(up, tau):
    """The array path of `closed_form._clock` on one flow, with (..., 4) rows
    of Y and c and s given a trailing axis."""
    tau = np.asarray(tau, dtype=float)
    g = up.g
    alpha, A, B, C = up._coeffs
    z = alpha * tau * tau
    c2, c3 = _stumpff_rows(z)
    c = 1.0 - z * c2
    s = tau * (1.0 - z * c3)
    S = 0.5 * tau * tau * tau * (c2 + c3 - z * c2 * c3)
    t = 2.0 * g * (A * (tau - alpha * S) + B * s * s + C * S)
    c, s = c[..., None], s[..., None]
    return t, c * up.Y0 + (g * s) * up.U0, c, s


def _eval_rows(up, tau):
    """`OscillatorFlow.eval` on the array path, as one C-contiguous
    (..., 9) array."""
    t, Y, c, s = _clock_rows(up, tau)
    return np.concatenate([Y, c * up.U0 + (2.0 * up.g * up.E * s) * up.Y0,
                           np.asarray(t)[..., None]], axis=-1)


def _monitors_rows(up):
    """`OscillatorFlow.monitors` on the (n, 8) chart columns of a
    C-contiguous (n, 9) array of the samples."""
    chart = _eval_rows(up, up.times)[:, :8]
    with np.errstate(divide="ignore", invalid="ignore"):
        return {obs.name: obs.fn(chart)
                for obs in (oscillator_invariant(up.E), OBSERVABLES["h"],
                            _chart_energy(up.k))}


def _tau_of_rows(res, t):
    """`UnfoldResult.tau_of` with the clock of `_clock_rows`."""
    up = res.upstairs
    nodes = _eval_rows(up, up.times)[:, 8]
    target = np.clip(np.asarray(t, dtype=float), nodes[0], nodes[-1])
    j = np.clip(np.searchsorted(nodes, target), 1, len(nodes) - 1)

    def fdf(tau):
        t, Y, _, _ = _clock_rows(up, tau)
        return t - target, 2.0 * up.g * np.sum(Y ** 2, axis=-1)

    return _safeguarded_newton(fdf, up.times[j - 1], up.times[j],
                               np.interp(target, nodes, up.times), _ROOT_TOL)


def _ks_tangent_rows(y, u):
    """`ks_tangent` writing its (..., 3) outputs column by column."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    y1, y2, y3, y0 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    u1, u2, u3, u0 = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
    x = np.empty(y.shape[:-1] + (3,))
    x[..., 0] = 2.0 * (y1 * y3 + y2 * y0)
    x[..., 1] = 2.0 * (y2 * y3 - y1 * y0)
    x[..., 2] = y1 * y1 + y2 * y2 - y3 * y3 - y0 * y0
    v = np.empty(np.broadcast(y1, u1).shape + (3,))
    v[..., 0] = 2.0 * (y1 * u3 + y2 * u0 + y3 * u1 + y0 * u2)
    v[..., 1] = 2.0 * (y3 * u2 + y2 * u3 - y1 * u0 - y0 * u1)
    v[..., 2] = 2.0 * (y1 * u1 + y2 * u2 - y3 * u3 - y0 * u0)
    return x, v


def _downstairs_rows(chart):
    """`reduction._downstairs` with |Y|^2 by np.sum over the last axis."""
    Y, U = chart[..., :4], chart[..., 4:8]
    with np.errstate(divide="ignore", invalid="ignore"):
        return _ks_tangent_rows(
            Y, U / (2.0 * np.sum(Y * Y, axis=-1))[..., None])


# the three orbits of the unfold gallery, an off-apsis bound orbit and a
# hyperbolic one under both scalings
_ORBITS = {
    "circular": ([1.0, 0, 0, 0, 1.0, 0], 2 * np.pi, "unit"),
    "eccentric": ([1.0, 0, 0, 0, 0.8, 0], 4 * np.pi, "unit"),
    "collision": ([1.0, 0, 0, -0.5, 0, 0], 6.0, "unit"),
    "bound-oblique": ([2.0, 0.3, -0.4, 0.1, 0.7, 0.2], 22.0, "unit"),
    "hyperbolic-unit": ([1.0, 0, 0, 0, 2.0, 0.3], 2.0, "unit"),
    "hyperbolic-gyorgyi": ([1.0, 0.2, -0.1, 0.3, 1.9, 0.4], 2.5, "gyorgyi"),
}


def _unfold(orbit):
    p0, tau_end, scaling = _ORBITS[orbit]
    return unfold_kepler(np.array(p0), tau_end, compare=False,
                         scaling=scaling_preset(scaling))


def _taus(up, seed):
    """Off-node taus past both ends, and taus far enough out that the
    closed form overflows to inf and NaN."""
    rng = rng_from_seed(seed)
    return np.concatenate([rng.uniform(-0.3, 1.3, 200) * up.tau_end,
                           [0.0, -0.0, np.nan, np.inf, -np.inf],
                           np.geomspace(10.0, 1e200, 40) * up.tau_end])


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_stumpff_is_bit_equal_to_its_row_oracle(orbit):
    up = _unfold(orbit).upstairs
    taus = _taus(up, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        z = up._coeffs[0] * taus * taus
        for arg in (z, z.reshape(5, -1), z[:1].reshape(())):
            for got, want in zip(closed_form._stumpff(arg), _stumpff_rows(arg)):
                assert _same(got, want)
    # the series, and cos/sin on a bound orbit or cosh/sinh on an E > 0 one
    small = np.abs(z) < 1.0
    assert small.any() and (z[~small & np.isfinite(z)] > 0.0).all() == (
        up.E < 0.0)


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_flow_eval_is_bit_equal_to_its_row_oracle(orbit):
    up = _unfold(orbit).upstairs
    assert _same(up.states, _eval_rows(up, up.times))
    taus = _taus(up, seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same(up.eval(taus), _eval_rows(up, taus))
        grid = taus[:6].reshape(2, 3)
        assert _same(up.eval(grid), _eval_rows(up, grid))
        assert up.eval(grid).shape == (2, 3, 9)
        state, deriv = up.eval_and_deriv(grid)
        assert state.shape == deriv.shape == (2, 3, 9)
        assert np.isnan(up.eval(taus)).any()
    for tau in taus[:20]:
        for form in (float(tau), np.array(tau), np.array([tau])):
            got = up.eval(form)
            assert _same(got, _eval_rows(up, form))
            assert got.shape == np.shape(form) + (9,)


def test_flow_samples_are_views_of_one_component_major_block():
    res = _unfold("eccentric")
    block = res.upstairs.states.T
    assert block.shape == (9, 513) and block.flags.c_contiguous
    for view in (res.ts, res.chart, res.upstairs.eval(res.taus)):
        assert not view.flags.owndata
    assert res.ts.flags.c_contiguous
    assert all(res.chart[:, i].flags.c_contiguous for i in range(8))
    assert res.xs.shape == res.vs.shape == (513, 3)


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_flow_monitors_are_bit_equal_to_their_row_oracle(orbit):
    up = _unfold(orbit).upstairs
    want = _monitors_rows(up)
    assert list(up.monitors) == list(want)
    for name, values in up.monitors.items():
        assert _same(values, want[name]), name


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_collision_search_scans_the_row_oracles_node_values(orbit,
                                                            monkeypatch):
    # Y . Y0 on the nodes is a BLAS product, whose kernel, and so whose last
    # bits, depends on the layout of the (n, 4) operand
    up = _unfold(orbit).upstairs
    scanned = []
    up_crossings = closed_form._up_crossings

    def recording(times, g, fdf):
        scanned.append(g)
        return up_crossings(times, g, fdf)

    monkeypatch.setattr(closed_form, "_up_crossings", recording)
    up.collision_time()
    want = -(_eval_rows(up, up.times)[:, :4] @ up.Y0)
    assert len(scanned) == 1 and _same(scanned[0], want)


def test_squared_norm_adds_as_np_sum_over_a_length_4_axis():
    rng = rng_from_seed(6)
    Y = rng.normal(size=(200_000, 4)) * rng.lognormal(0.0, 5.0, (200_000, 4))
    assert _same(closed_form._squared_norm(Y.T), np.sum(Y * Y, axis=-1))


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_tau_of_is_bit_equal_to_its_row_oracle(orbit):
    res = _unfold(orbit)
    t_end = float(res.ts[-1])
    t = np.concatenate([np.linspace(-1.0, t_end + 1.0, 1025), res.ts[::7]])
    assert _same(res.tau_of(t), _tau_of_rows(res, t))
    grid = t[:6].reshape(2, 3)
    assert _same(res.tau_of(grid), _tau_of_rows(res, grid))
    for tv in (0.0, 0.37 * t_end, t_end):
        got = res.tau_of(np.array(tv))
        assert np.ndim(got) == 0
        assert _same(np.asarray(got), _tau_of_rows(res, tv))


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_downstairs_is_bit_equal_to_its_row_oracle(orbit):
    res = _unfold(orbit)
    up = res.upstairs
    want = _downstairs_rows(np.ascontiguousarray(res.chart))
    for got, w in zip((res.xs, res.vs), want):
        assert _same(got, w)
    # the comparison's projection: states at the inverted grid times
    states = up.eval(res.tau_of(np.linspace(0.0, float(res.ts[-1]), 513)))
    want = _downstairs_rows(np.ascontiguousarray(states))
    for got, w in zip(reduction._downstairs(states), want):
        assert _same(got, w)


def test_downstairs_keeps_nan_velocities_where_y_vanishes():
    rng = rng_from_seed(4)
    chart = rng.normal(size=(40, 8))
    chart[::5, :4] = 0.0  # Y = 0 with U != 0
    chart[3, :] = 0.0     # Y = U = 0
    want = _downstairs_rows(chart)
    for layout in (chart, np.asfortranarray(chart)):
        x, v = reduction._downstairs(layout)
        assert _same(x, want[0]) and _same(v, want[1])
        assert not np.isnan(x).any()
        assert np.isnan(v[::5]).all() and np.isnan(v[3]).all()
    x, v = reduction._downstairs(chart[0])
    assert x.shape == v.shape == (3,)


def test_ks_tangent_is_bit_equal_to_its_row_oracle():
    rng = rng_from_seed(5)
    y, u = rng.normal(size=(2, 60, 4))
    cases = [(y, u), (y[0], u[0]), (y.reshape(3, 20, 4), u.reshape(3, 20, 4)),
             (y, u[0]), (np.asfortranarray(y), u), (y[:, None], u[None, :7])]
    for yc, uc in cases:
        for got, want in zip(ks_tangent(yc, uc), _ks_tangent_rows(yc, uc)):
            assert _same(got, want)
