"""Reduction squares, the Kepler unfolding pipeline, Calogero-Moser,
and descent of constants through the gauge quotient."""

import numpy as np
import pytest
from scipy.optimize import brentq

import ksunfold.reduction as reduction
from ksunfold import (
    CONSERVED,
    DegenerateStructureError,
    DomainError,
    HorizonError,
    IntegrationError,
    OBSERVABLES,
    check_equivariance,
    fiber_momentum,
    kepler_period_from_unfold,
    kepler_setup,
    ks_lift,
    radial_setup,
    reduce_calogero,
    to_oscillator_chart,
    unfold_kepler,
    unfold_sweep,
    verify_structure_constants,
)
from ksunfold.integrate import IntegratorConfig, Trajectory, integrate
from ksunfold.symplectic import chart_structure, quadratic_observable
from ksunfold.sampling import rng_from_seed, sample_states3
from ksunfold.systems import DynamicalSystem, kepler_field, scaling_preset


# --- radial reduction of free motion ---------------------------------------

def test_radial_square_commutes_and_matches_analytic_orbit():
    # x(t) = (1, t, 0):  r(t) = sqrt(1 + t^2), energy 1/2
    setup = radial_setup(E=0.5)
    s0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    rep = check_equivariance(setup, s0, T=3.0, tol=1e-8)
    assert rep["pass"], rep
    # and the reduced flow itself reproduces the closed form
    traj = integrate(setup.downstairs, setup.projection(s0), 3.0)
    ts = np.linspace(0.0, 3.0, 301)
    r = np.array([traj.eval(t)[0] for t in ts])
    assert np.max(np.abs(r - np.sqrt(1.0 + ts**2))) < 1e-9


def test_radial_angular_variant_matches_same_orbit():
    # the fixed-l reduction of the same motion: l = |x0 x v0| = 1
    from ksunfold import radial_reduced_field

    sys_l = radial_reduced_field(l=1.0, variant="angular")
    traj = integrate(sys_l, np.array([1.0, 0.0]), 3.0)
    ts = np.linspace(0.0, 3.0, 301)
    r = np.array([traj.eval(t)[0] for t in ts])
    assert np.max(np.abs(r - np.sqrt(1.0 + ts**2))) < 1e-9


def test_equivariance_zero_horizon():
    setup = radial_setup(E=0.5)
    rep = check_equivariance(setup, np.array([1.0, 0, 0, 0, 1.0, 0]), T=0.0)
    assert rep["pass"] and rep["max_divergence"] == 0.0
    assert rep["grid_points"] == 0


def test_equivariance_reports_grid_intervals_and_points():
    rep = check_equivariance(radial_setup(E=0.5),
                             np.array([1.0, 0, 0, 0, 1.0, 0]), T=1.0)
    assert (rep["n_grid"], rep["grid_points"]) == (512, 513)
    assert "samples" not in rep


def test_equivariance_rejects_off_level_states():
    setup = radial_setup(E=0.5)
    bad = np.array([1.0, 0.0, 0.0, 0.0, 1.1, 0.0])  # energy != 1/2
    with pytest.raises(DomainError):
        check_equivariance(setup, bad, T=1.0)


# --- Kepler square ----------------------------------------------------------

def test_kepler_square_circular_orbit():
    y0, u0 = ks_lift(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    s0 = np.concatenate([y0, u0])
    rep = check_equivariance(kepler_setup(), s0, T=2 * np.pi, tol=1e-7)
    assert rep["pass"], rep
    assert rep["constraint_residual"] < 1e-12


def test_kepler_square_random_gauge_and_eccentricity():
    y0, u0 = ks_lift(np.array([1.0, 0, 0]), np.array([0, 0.8, 0]), 2.1)
    s0 = np.concatenate([y0, u0])
    rep = check_equivariance(kepler_setup(), s0, T=3.0, tol=1e-7)
    assert rep["pass"], rep


# --- unfolding pipeline ------------------------------------------------------

def test_unfold_circular_orbit():
    res = unfold_kepler(np.array([1.0, 0, 0, 0, 1.0, 0]), 2 * np.pi)
    assert abs(res.E + 0.5) < 1e-12
    assert res.divergence["compared"]
    assert not res.collision
    assert res.divergence["max_position_divergence"] < 1e-7
    assert res.divergence["max_velocity_divergence"] < 1e-7
    # the projected radius stays on the unit circle
    r = np.linalg.norm(res.xs, axis=1)
    assert np.max(np.abs(r - 1.0)) < 1e-7


def test_unfold_eccentric_orbit_conserves_downstairs_constants():
    # e = |A| = 0.36, p = |L|^2 = 0.64: perihelion p/(1+e)
    res = unfold_kepler(np.array([1.0, 0, 0, 0, 0.8, 0]), 4 * np.pi, n_samples=4096)
    states = np.concatenate([res.xs, res.vs], axis=1)
    for name in ("L1", "L2", "L3", "A1", "A2", "A3", "kepler_energy"):
        vals = OBSERVABLES[name](states)
        assert np.max(vals) - np.min(vals) < 1e-8, name
    peri = 0.64 / 1.36
    assert abs(np.min(np.linalg.norm(res.xs, axis=1)) - peri) < 1e-5


def test_unfold_gauge_independence_downstairs():
    # the same orbit unfolded at different fiber angles projects identically
    p0 = np.array([1.0, 0, 0, 0, 0.9, 0.1])
    base = unfold_kepler(p0, 5.0, compare=False)
    for lam in (1.0, 2.5, 4.4):
        other = unfold_kepler(p0, 5.0, gauge=lam, compare=False)
        assert np.max(np.abs(other.xs - base.xs)) < 1e-8
        assert np.max(np.abs(other.vs - base.vs)) < 1e-8
        assert abs(other.E - base.E) < 1e-13


def test_unfold_time_map_is_monotone_and_invertible():
    res = unfold_kepler(np.array([1.0, 0, 0, 0, 1.0, 0]), 2 * np.pi, compare=False)
    assert np.all(np.diff(res.ts) > 0)
    # t_of and tau_of are mutually inverse on the span
    for tau in (0.3, 2.0, 5.1):
        t = float(res.t_of(tau))
        assert abs(float(res.tau_of(t)) - tau) < 1e-10
    # circular orbit at r = 1: dt/dtau = 2 R^2 = 2, so t(tau) = 2 tau
    assert np.max(np.abs(res.ts - 2.0 * res.taus)) < 1e-9


def _tau_of_brentq(res, t):
    """Oracle for UnfoldResult.tau_of: one scalar brentq solve per point on
    the dense output, bracketed by the accepted nodes."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    t_nodes = res.upstairs.states[:, 8]
    tau_nodes = res.upstairs.times
    out = np.empty_like(t_arr)
    for i, tv in enumerate(t_arr):
        j = int(np.clip(np.searchsorted(t_nodes, tv), 1, len(t_nodes) - 1))
        if tv <= t_nodes[0]:
            out[i] = tau_nodes[0]
        elif tv >= t_nodes[-1]:
            out[i] = tau_nodes[-1]
        else:
            out[i] = brentq(
                lambda tau: float(res.upstairs.eval(tau)[8]) - tv,
                tau_nodes[j - 1], tau_nodes[j], xtol=1e-13,
            )
    return out


# circular, e = 0.6 (one upstairs period each) and radial collision
_ORBITS = {
    "circular": ([1.0, 0, 0, 0, 1.0, 0], 2 * np.pi),
    "e0.6": ([1.0, 0, 0, 0, np.sqrt(0.4), 0], 2 * np.pi / np.sqrt(1.6)),
    "collision": ([1.0, 0, 0, -0.5, 0, 0], 6.0),
}


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_tau_of_matches_brentq_oracle(orbit):
    p0, tau_end = _ORBITS[orbit]
    res = unfold_kepler(np.array(p0), tau_end, compare=False)
    t_nodes = res.upstairs.states[:, 8]
    t_end = float(res.ts[-1])
    inside = np.concatenate([np.linspace(0.0, t_end, 513), t_nodes])
    outside = np.array([-1.0, -1e-9, t_end + 1e-9, t_end + 1.0])
    t = np.concatenate([inside, outside])
    tau = res.tau_of(t)
    assert np.max(np.abs(tau - _tau_of_brentq(res, t))) <= 1e-12
    resid = np.abs(res.t_of(tau[:len(inside)]) - inside)
    assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(inside)))
    # outside the span tau clamps to the ends
    ends = np.array([0.0, 0.0, tau_end, tau_end])
    assert np.max(np.abs(tau[len(inside):] - ends)) <= 1e-12


def _tau_of_newton_loop(res, t):
    """Oracle for UnfoldResult.tau_of: its Newton loop as it stood before
    the loop moved into integrate._safeguarded_newton."""
    up = res.upstairs
    nodes = up.states[:, 8]
    target = np.clip(np.asarray(t, dtype=float), nodes[0], nodes[-1])
    j = np.clip(np.searchsorted(nodes, target), 1, len(nodes) - 1)
    lo, hi = up.times[j - 1], up.times[j]
    tau = np.interp(target, nodes, up.times)
    for _ in range(64):
        state = up.eval(tau)
        f = state[..., 8] - target
        df = 2.0 * up.g * np.sum(state[..., :4] ** 2, axis=-1)
        lo = np.where(f <= 0.0, tau, lo)
        hi = np.where(f >= 0.0, tau, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = tau - f / df
        inside = (newton >= lo) & (newton <= hi)
        step = np.where(inside, newton, 0.5 * (lo + hi)) - tau
        tau = tau + step
        if not np.any(np.abs(step) > 1e-14 * np.maximum(1.0, np.abs(tau))):
            break
    return tau


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_tau_of_is_bit_equal_to_its_newton_loop(orbit):
    p0, tau_end = _ORBITS[orbit]
    res = unfold_kepler(np.array(p0), tau_end, compare=False)
    t_end = float(res.ts[-1])
    t = np.concatenate([np.linspace(-1.0, t_end + 1.0, 2049),
                        res.upstairs.states[:, 8]])
    assert np.array_equal(res.tau_of(t), _tau_of_newton_loop(res, t))
    for tv in (0.0, 0.37 * t_end, t_end):
        out = res.tau_of(tv)
        assert np.ndim(out) == 0
        assert np.array_equal(out, _tau_of_newton_loop(res, tv))


def test_tau_of_keeps_scalar_and_array_shapes():
    res = unfold_kepler(np.array([1.0, 0, 0, 0, 1.0, 0]), 2 * np.pi,
                        compare=False)
    for t in (3.0, np.float64(3.0), np.array(3.0)):
        out = res.tau_of(t)
        assert np.ndim(out) == 0
        assert abs(float(out) - 1.5) < 1e-9
    assert res.tau_of([3.0]).shape == (1,)
    assert res.tau_of(np.array([1.0, 3.0, 5.0])).shape == (3,)
    assert res.tau_of(np.zeros((2, 3))).shape == (2, 3)


def _augmented_oscillator(E, g):
    """DOP853 oracle for the closed-form flow: (Y, U, t) with dY/dtau = g U,
    dU/dtau = 2 g E Y, dt/dtau = 2 g R^2, linear in (Y, U)."""

    def rhs(s):
        Y, U = s[..., :4], s[..., 4:8]
        dt = 2.0 * g * np.sum(Y * Y, axis=-1)
        return np.concatenate([g * U, (2.0 * g * E) * Y, dt[..., None]],
                              axis=-1)

    return DynamicalSystem("unfold", 9, rhs=rhs)


# E < 0 (the three orbits above), E > 0 with both scalings, and E ~ 0, where
# the Stumpff argument stays inside the series region
_FLOW_ORBITS = {
    **{name: (p0, tau_end, "unit") for name, (p0, tau_end) in _ORBITS.items()},
    "hyperbolic-unit": ([1.0, 0, 0, 0, 2.0, 0.3], 2.0, "unit"),
    "hyperbolic-gyorgyi": ([1.0, 0, 0, 0, 2.0, 0.3], 2.0, "gyorgyi"),
    "near-parabolic": ([1.0, 0, 0, 0, np.sqrt(2.0 + 2e-11), 0], 3.0, "unit"),
}


@pytest.mark.parametrize("orbit", sorted(_FLOW_ORBITS))
def test_closed_form_flow_matches_dop853_oracle(orbit):
    p0, tau_end, scaling = _FLOW_ORBITS[orbit]
    res = unfold_kepler(np.array(p0), tau_end,
                        scaling=scaling_preset(scaling), compare=False)
    up = res.upstairs
    if orbit == "near-parabolic":
        assert 0.0 < abs(up.E) < 1e-10
    s0 = np.concatenate([up.Y0, up.U0, [0.0]])
    oracle = integrate(_augmented_oscillator(up.E, up.g), s0, tau_end)
    ref = oracle.eval(up.times)
    assert np.max(np.abs(up.states[:, :8] - ref[:, :8])) <= 1e-8
    t = up.states[:, 8]
    assert np.all(np.abs(t - ref[:, 8]) <= 1e-8 * np.maximum(1.0, np.abs(t)))
    # the sampled columns are the flow's own nodes, and eval reproduces them
    assert np.array_equal(res.chart, up.states[:, :8])
    assert np.array_equal(up.eval(up.times[7]), up.states[7])


def _stumpff_all_branches(z):
    """Oracle for reduction._stumpff: the series, cos/sin and cosh/sinh
    forms on every element (each branch fed 0 or 1 where another applies),
    one result picked per element by np.where."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)[..., None]
    rows = np.array(reduction._STUMPFF_ROWS)
    series = rows[0]
    for coeff in rows[1:]:
        series = coeff - zs * series
    w = np.sqrt(np.abs(np.where(small, 1.0, z)))
    ell = z > 0.0
    wc, wh = np.where(ell, w, 0.0), np.where(ell, 0.0, w)
    c2 = np.where(ell, 1.0 - np.cos(wc), np.cosh(wh) - 1.0) / (w * w)
    c3 = np.where(ell, wc - np.sin(wc), np.sinh(wh) - wh) / (w * w * w)
    return (np.where(small, series[..., 0], c2),
            np.where(small, series[..., 1], c3))


def _flow_eval_oracle(up, tau):
    """Oracle for OscillatorFlow.eval: the closed form with the all-branch
    Stumpff functions and the constants formed on every call."""
    tau = np.asarray(tau, dtype=float)
    g, E = up.g, up.E
    alpha = -2.0 * g * g * E
    z = alpha * tau * tau
    c2, c3 = _stumpff_all_branches(z)
    c = 1.0 - z * c2
    s = tau * (1.0 - z * c3)
    S = 0.5 * tau * tau * tau * (c2 + c3 - z * c2 * c3)
    A = float(up.Y0 @ up.Y0)
    B = g * float(up.Y0 @ up.U0)
    C = g * g * float(up.U0 @ up.U0)
    t = 2.0 * g * (A * (tau - alpha * S) + B * s * s + C * S)
    c, s = c[..., None], s[..., None]
    return np.concatenate([c * up.Y0 + (g * s) * up.U0,
                           c * up.U0 + (2.0 * g * E * s) * up.Y0,
                           t[..., None]], axis=-1)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


_STUMPFF_EDGES = np.array([
    0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
    1e3, -1e3, np.inf, -np.inf, np.nan,
])


def _stumpff_arguments(case):
    rng = rng_from_seed(29)
    return {
        "series": rng.uniform(-1.0, 1.0, 400),
        "trig": rng.uniform(1.0, 400.0, 400),
        "hyperbolic": rng.uniform(-400.0, -1.0, 400),
        "mixed": rng.uniform(-60.0, 60.0, 400),
        "mixed-2d": rng.uniform(-3.0, 3.0, (20, 30)),
        "edges": _STUMPFF_EDGES,
        "edges-2d": np.tile(_STUMPFF_EDGES, (3, 1)).T,
    }[case]


@pytest.mark.parametrize("case", ["series", "trig", "hyperbolic", "mixed",
                                  "mixed-2d", "edges", "edges-2d"])
def test_stumpff_is_bit_equal_to_the_all_branch_oracle(case):
    z = _stumpff_arguments(case)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = reduction._stumpff(z), _stumpff_all_branches(z)
        scalars = [(reduction._stumpff(v), _stumpff_all_branches(v))
                   for v in z.reshape(-1)[:50]]
    for g, w in zip(got, want):
        assert g.shape == w.shape == z.shape
        assert np.array_equal(_bits(g), _bits(w))
    # 0-d inputs, one element at a time
    for pair_got, pair_want in scalars:
        for g, w in zip(pair_got, pair_want):
            assert np.ndim(g) == np.ndim(w) == 0
            assert _bits(g) == _bits(w)


@pytest.mark.parametrize("orbit", sorted(_FLOW_ORBITS))
def test_flow_eval_reproduces_every_node_bit_for_bit(orbit):
    p0, tau_end, scaling = _FLOW_ORBITS[orbit]
    up = unfold_kepler(np.array(p0), tau_end, scaling=scaling_preset(scaling),
                       compare=False).upstairs
    assert np.array_equal(_bits(up.eval(up.times)), _bits(up.states))
    assert np.array_equal(_bits(_flow_eval_oracle(up, up.times)),
                          _bits(up.states))
    for i, tau in enumerate(up.times):
        assert np.array_equal(_bits(up.eval(tau)), _bits(up.states[i]))
    # off the nodes, one point and many at once, against the oracle
    taus = np.linspace(-0.3 * tau_end, 1.3 * tau_end, 97)
    assert np.array_equal(_bits(up.eval(taus)),
                          _bits(_flow_eval_oracle(up, taus)))
    for tau in taus[::8]:
        assert np.array_equal(_bits(up.eval(tau)),
                              _bits(_flow_eval_oracle(up, tau)))


def _eager_monitors(up):
    """The monitors as the flow formed them when it was built, from the
    samples as a C-contiguous (n, 9) array (the observables' matmul and
    einsum kernels depend on the layout they read)."""
    chart = np.ascontiguousarray(up.states)[:, :8]
    with np.errstate(divide="ignore", invalid="ignore"):
        return {obs.name: obs.fn(chart)
                for obs in (reduction.oscillator_invariant(up.E),
                            OBSERVABLES["h"], reduction._chart_energy(up.k))}


@pytest.mark.parametrize("k", [1.0, 2.0])
def test_flow_monitors_are_computed_once_on_first_read(monkeypatch, k):
    built = []
    chart_energy = reduction._chart_energy

    def counting(k):
        built.append(k)
        return chart_energy(k)

    monkeypatch.setattr(reduction, "_chart_energy", counting)
    res = unfold_kepler(np.array([1.0, 0, 0, 0, 0.8, 0]), 10.0, k=k,
                        compare=False)
    periods = kepler_period_from_unfold(res)
    assert periods["tau_period"] > 0.0
    up = res.upstairs
    assert built == [] and "monitors" not in vars(up)
    monitors = up.monitors
    assert built == [k]
    assert up.monitors is monitors
    assert built == [k]
    monkeypatch.setattr(reduction, "_chart_energy", chart_energy)
    want = _eager_monitors(up)
    assert list(monitors) == list(want)
    for name, values in want.items():
        assert np.array_equal(_bits(monitors[name]), _bits(values))


def test_unfold_monitors_at_force_constant_two():
    res = unfold_kepler(np.array([1.0, 0, 0, 0, 1.2, 0]), 3.0, k=2.0)
    assert res.divergence["max_position_divergence"] < 1e-7
    assert res.divergence["max_velocity_divergence"] < 1e-7
    energy = res.upstairs.monitors["chart_energy"]
    assert np.max(energy) - np.min(energy) < 1e-9
    assert abs(energy[0] - res.E) < 1e-12
    inv = res.upstairs.monitors["oscillator_invariant"]
    assert np.max(np.abs(inv - 2.0)) < 1e-9


def test_unfold_rejects_non_positive_tau_end():
    for tau_end in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError, match="tau_end"):
            unfold_kepler(np.array([1.0, 0, 0, 0, 1.0, 0]), tau_end,
                          compare=False)


def _count_direct_legs(monkeypatch):
    calls = []

    def counting(system, *args, **kwargs):
        if system.name == "kepler":
            calls.append(system.name)
        return integrate(system, *args, **kwargs)

    monkeypatch.setattr(reduction, "integrate", counting)
    return calls


@pytest.mark.parametrize("orbit, legs", [("e0.6", 1), ("collision", 1)])
def test_sweep_integrates_the_direct_leg_once(monkeypatch, orbit, legs):
    # the closed form locates the collision, so no attempt fails
    p0, tau_end = _ORBITS[orbit]
    calls = _count_direct_legs(monkeypatch)
    results = list(unfold_sweep(np.array(p0), tau_end, [0.0, 1.0, 2.0]))
    assert len(results) == 3
    assert len(calls) == legs
    assert all(r.collision is (orbit == "collision") for r in results)


def _sweep_divergences(p0, tau_end):
    """The comparisons of an 8-angle gauge sweep, as `ksunfold unfold
    --lambda 0..6.28:8` runs it."""
    return [r.divergence for r in unfold_sweep(
        np.array(p0), tau_end, np.linspace(0.0, 6.28, 8))]


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_sweep_evaluates_the_direct_leg_once_per_grid(monkeypatch, orbit):
    p0, tau_end = _ORBITS[orbit]
    # each gauge compared alone, as if the leg had not been evaluated before
    compare = reduction._compare_downstairs

    def afresh(results, leg):
        divergences = []
        for result in results:
            leg[4].clear()
            divergences += compare([result], leg)
        return divergences

    monkeypatch.setattr(reduction, "_compare_downstairs", afresh)
    fresh = _sweep_divergences(p0, tau_end)
    monkeypatch.setattr(reduction, "_compare_downstairs", compare)

    evals = []
    eval_ = Trajectory.eval

    def counting(self, t):
        evals.append(float(t[-1]))
        return eval_(self, t)

    monkeypatch.setattr(Trajectory, "eval", counting)
    divergences = _sweep_divergences(p0, tau_end)
    assert divergences == fresh  # bit for bit
    grids = {d["t_compared"] for d in divergences}
    assert sorted(evals) == sorted(grids)
    if orbit == "collision":  # every gauge is cut at the leg's end
        assert len(evals) == 1


def test_direct_leg_computes_no_monitors(monkeypatch):
    legs = []

    def recording(system, *args, **kwargs):
        traj = integrate(system, *args, **kwargs)
        if system.name == "kepler":
            legs.append((args, kwargs, traj))
        return traj

    monkeypatch.setattr(reduction, "integrate", recording)
    p0, tau_end = _ORBITS["e0.6"]
    res = unfold_kepler(np.array(p0), tau_end)
    [(args, kwargs, traj)] = legs
    assert kwargs["monitors"] == () and traj.monitors == {}
    # the same steps as a leg that computes the system's monitors
    full = integrate(kepler_field(), *args, config=kwargs["config"])
    assert set(full.monitors) == set(CONSERVED["kepler"])
    assert np.array_equal(full.times, traj.times)
    assert np.array_equal(full.states, traj.states)
    assert full.stats == traj.stats
    assert res.direct_leg["rhs_evals"] == full.stats["rhs_evals"]


def _failed_attempt_time(p0, t_end):
    with pytest.raises(IntegrationError) as exc:
        integrate(kepler_field(), np.asarray(p0, dtype=float), t_end)
    return exc.value.t


@pytest.mark.parametrize("p0", [
    [1.0, 0, 0, -0.5, 0, 0],   # the gallery collision orbit
    [0, 0, -1.0, 0, 0, 0.5],   # a rotation of the cube of it
    [1.0, 0, 0, 0.5, 0, 0],    # outward first, then back to r = 0
])
def test_collision_horizon_matches_the_failing_dop853_attempt(p0):
    res = unfold_kepler(np.array(p0), 6.0)
    t_col = res.upstairs.collision_time()
    t_fail = _failed_attempt_time(p0, float(res.ts[-1]))
    assert abs(t_col - t_fail) <= 1e-10 * t_col
    assert res.collision
    assert res.direct_leg["horizon"] == "collision"
    assert res.direct_leg["attempts"] == 1
    assert res.divergence["t_compared"] == 0.95 * t_col


def _near_radial_retries(monkeypatch, config):
    p0 = np.array([1.0, 0, 0, -0.5, 1e-6, 0])
    assert unfold_kepler(p0, 6.0, compare=False).upstairs.collision_time() is None
    calls = _count_direct_legs(monkeypatch)
    res = unfold_kepler(p0, 6.0, config=config)
    assert len(calls) == 2
    assert res.collision
    assert res.direct_leg["horizon"] == "span"
    assert res.direct_leg["attempts"] == 2


def test_near_radial_orbit_gets_no_horizon_and_retries(monkeypatch):
    _near_radial_retries(monkeypatch, IntegratorConfig())


def test_near_radial_orbit_gets_no_horizon_and_retries_dop853(monkeypatch):
    _near_radial_retries(monkeypatch, None)


def _failed_attempt_record(config, failed, record):
    p0 = np.array([1.0, 0, 0, -0.5, 1e-6, 0])
    res = unfold_kepler(p0, 6.0, config=config)
    with pytest.raises(IntegrationError) as exc:
        integrate(kepler_field(), p0, float(res.ts[-1]),
                  config=config or IntegratorConfig())
    assert exc.value.stats == failed
    assert res.sidecar()["direct_leg"] == {
        "horizon": "span", "attempts": 2,
        **{f"failed_{key}": count for key, count in failed.items()},
        **record}


def test_direct_leg_record_counts_the_failed_attempt():
    # a given config, not the default, runs both attempts
    _failed_attempt_record(
        IntegratorConfig(rel_tol=1e-10),
        {"rhs_evals": 5093, "rejected_steps": 188, "domain_retries": 0},
        {"rhs_evals": 452, "accepted_steps": 18, "rejected_steps": 15})


def test_direct_leg_record_counts_the_failed_attempt_dop853():
    _failed_attempt_record(
        None,
        {"rhs_evals": 6551, "rejected_steps": 242, "domain_retries": 0},
        {"rhs_evals": 614, "accepted_steps": 24, "rejected_steps": 21})


def test_direct_leg_counts_a_refused_start_as_a_failed_attempt():
    # |x| = 1e-13 lies inside the field's r_min = 1e-12, so the leg's first
    # rhs call raises DomainError at t = 0; the closed form still unfolds
    # the orbit, and the leg gives up after that one attempt
    p0 = (1e-13, 0, 0, 0, 0, 0)
    res = unfold_kepler(p0, 2 * np.pi / np.sqrt(2e13))
    assert res.collision
    assert res.divergence == {"compared": False, "collision": True,
                              "t_compared": 0.0}
    assert res.sidecar()["direct_leg"] == {"horizon": "collision",
                                           "attempts": 1}
    # the projected start is the start, to rounding of |x| = 1e-13
    assert np.linalg.norm(res.xs[0] - p0[:3]) < 1e-15 * 1e-13
    assert np.isfinite(res.ts).all()


@pytest.mark.parametrize("orbit, record", [
    ("circular", {"horizon": "span", "attempts": 1, "rhs_evals": 842,
                  "accepted_steps": 56, "rejected_steps": 0}),
    ("collision", {"horizon": "collision", "attempts": 1, "rhs_evals": 452,
                   "accepted_steps": 18, "rejected_steps": 15}),
])
def test_sidecar_records_the_direct_leg(orbit, record):
    # a given config runs the leg, and the sidecar records its tolerances
    p0, tau_end = _ORBITS[orbit]
    res = unfold_kepler(np.array(p0), tau_end,
                        config=IntegratorConfig(rel_tol=1e-10))
    side = res.sidecar()
    assert side["direct_leg"] == record
    assert (side["method"], side["rel_tol"], side["abs_tol"]) == (
        "dop853", 1e-10, 1e-12)
    # 2 set-up calls, 12 per accepted or rejected step, and 3 dense-output
    # stages per accepted step
    assert record["rhs_evals"] == 2 + 12 * (record["accepted_steps"]
                                            + record["rejected_steps"]
                                            ) + 3 * record["accepted_steps"]
    assert unfold_kepler(np.array(p0), tau_end,
                         compare=False).sidecar()["direct_leg"] is None


@pytest.mark.parametrize("orbit, record", [
    ("circular", {"horizon": "span", "attempts": 1, "rhs_evals": 1082,
                  "accepted_steps": 72, "rejected_steps": 0}),
    ("collision", {"horizon": "collision", "attempts": 1, "rhs_evals": 614,
                   "accepted_steps": 24, "rejected_steps": 21}),
])
def test_sidecar_records_the_direct_leg_dop853(orbit, record):
    p0, tau_end = _ORBITS[orbit]
    side = unfold_kepler(np.array(p0), tau_end).sidecar()
    assert side["direct_leg"] == record
    assert (side["method"], side["rel_tol"], side["abs_tol"]) == (
        "dop853", 1e-11, 1e-12)
    # 2 set-up calls, 12 per accepted or rejected step, and 3 dense-output
    # stages per accepted step
    assert record["rhs_evals"] == 2 + 12 * (record["accepted_steps"]
                                            + record["rejected_steps"]
                                            ) + 3 * record["accepted_steps"]


@pytest.mark.parametrize("v, tau_end", [([0, 2.0, 0], 1000.0),
                                        ([0, 1.0, 0], 1e150)])
def test_unfold_rejects_a_span_the_closed_form_overflows(v, tau_end):
    # pytest turns every warning into an error: none may be emitted
    p0 = np.array([1.0, 0, 0, *v])
    with pytest.raises(HorizonError, match="tau_end"):
        unfold_kepler(p0, tau_end, compare=False)
    with pytest.raises(ValueError, match="tau_end"):
        unfold_kepler(p0, tau_end)


@pytest.mark.parametrize("orbit", sorted(_ORBITS))
def test_sweep_divergence_matches_single_gauge_unfold(orbit):
    p0, tau_end = _ORBITS[orbit]
    gauges = [0.0, 1.3, 4.4]
    for lam, res in zip(gauges, unfold_sweep(np.array(p0), tau_end, gauges)):
        one = unfold_kepler(np.array(p0), tau_end, gauge=lam)
        assert res.gauge == lam
        assert res.collision == one.collision
        assert res.divergence["compared"] and one.divergence["compared"]
        for key in ("max_position_divergence", "max_velocity_divergence"):
            assert abs(res.divergence[key] - one.divergence[key]) <= 1e-12
        assert np.array_equal(res.chart, one.chart)


def test_unfold_monitors_hold_invariant_and_gauge_level():
    res = unfold_kepler(np.array([1.0, 0, 0, 0, 0.8, 0]), 10.0, compare=False)
    inv = res.upstairs.monitors["oscillator_invariant"]
    assert np.max(inv) - np.min(inv) < 1e-9
    h = res.upstairs.monitors["h"]
    assert np.max(np.abs(h)) < 1e-10


def test_unfold_period_family():
    # Kepler's third law through the unfolding, three energies
    for a in (1.0, 2.0, 4.0):
        p0 = np.array([a, 0, 0, 0, 1.0 / np.sqrt(a), 0])
        E = -0.5 / a
        tau_ref = 2 * np.pi / np.sqrt(-2 * E)
        res = unfold_kepler(p0, 2.2 * tau_ref, compare=False)
        periods = kepler_period_from_unfold(res)
        T_kepler = 2 * np.pi * a**1.5
        assert abs(periods["tau_period"] - tau_ref) < 1e-8
        assert abs(periods["t_half"] - T_kepler) < 1e-6 * T_kepler
        # the chart state double-covers the orbit: full tau-period spans
        # two Kepler periods downstairs
        assert abs(periods["t_full"] - 2 * T_kepler) < 1e-6 * T_kepler


@pytest.mark.parametrize("p0, tau_end, match", [
    ([1.0, 0, 0, 0, 2.0, 0.3], 2.0, r"E = .* >= 0 has no period"),
    ([1.0, 0, 0, 0, 0.8, 0], 0.9 * 2 * np.pi / np.sqrt(1.36),
     r"tau_end = .* is shorter than the tau-period"),
])
def test_period_names_why_there_is_none(p0, tau_end, match):
    res = unfold_kepler(np.array(p0), tau_end, compare=False)
    with pytest.raises(ValueError, match=match):
        kepler_period_from_unfold(res)


def test_period_found_just_past_one_tau_period():
    p0, E = np.array([1.0, 0, 0, 0, 0.8, 0]), -0.68
    tau_ref = 2 * np.pi / np.sqrt(-2 * E)
    res = unfold_kepler(p0, 1.01 * tau_ref, compare=False)
    assert abs(res.E - E) < 1e-15
    assert abs(kepler_period_from_unfold(res)["tau_period"] - tau_ref) < 1e-8


@pytest.mark.parametrize("a, k", [
    (1e18, 1.0),
    (1e20, 1.0),
    (1.495978707e11, 1.32712440018e20),  # the Earth's orbit in SI units
], ids=["a1e18", "a1e20", "earth-si"])
def test_period_of_a_wide_orbit_is_its_first_return(a, k):
    # |(Y0, U0)| is 1e9 and more: rounding alone puts the first return
    # further than 1e-6 from the start
    p0 = np.array([a, 0, 0, 0, np.sqrt(k / a), 0])
    tau_ref = 2 * np.pi / np.sqrt(k / a)
    res = unfold_kepler(p0, 2.2 * tau_ref, k=k, compare=False)
    periods = kepler_period_from_unfold(res)
    T_kepler = 2 * np.pi * np.sqrt(a**3 / k)
    assert abs(periods["tau_period"] - tau_ref) < 1e-10 * tau_ref
    assert abs(periods["t_half"] - T_kepler) < 1e-10 * T_kepler
    assert abs(periods["t_full"] - 2 * T_kepler) < 1e-10 * T_kepler



@pytest.mark.parametrize("j", [-12, -15, -18])
def test_direct_leg_of_a_small_orbit_is_compared(j):
    # x -> 4^j x, v -> 2^-j v, tau -> 2^j tau maps one Kepler orbit (k = 1)
    # exactly onto another, with t -> 8^j t.  The direct leg's span here is
    # 1.7e-10 to 6.5e-16; a step floor absolute below t = 1 refused its
    # first step, and the leg was reported as a collision, not compared
    p0 = np.array([1.6 * 4.0**j, 0, 0, 0, 0.5 * 2.0**-j, 0])
    res = unfold_kepler(p0, 6 * 2.0**j)
    assert not res.collision
    assert res.divergence["compared"]
    assert res.divergence["t_compared"] == res.ts[-1] < 1e-9
    # relative to the orbit's scale, as at j = 0 (4.2e-10 and 1.3e-9)
    assert res.divergence["max_position_divergence"] < 1e-9 * 4.0**j
    assert res.divergence["max_velocity_divergence"] < 1e-8 * 2.0**-j

def test_unfold_projects_downstairs_only_what_is_read(monkeypatch, tmp_path):
    from ksunfold.cli import main

    projected = []
    downstairs = reduction._downstairs

    def counting(chart):
        projected.append(chart.shape[:-1])
        return downstairs(chart)

    monkeypatch.setattr(reduction, "_downstairs", counting)
    res = unfold_kepler(np.array([1.0, 0, 0, 0, 0.8, 0]), 10.0,
                        compare=False)
    kepler_period_from_unfold(res)
    res.sidecar()
    assert projected == []
    xs = res.xs
    assert projected == [(513,)]
    assert res.xs is xs and res.vs is res.vs and projected == [(513,)]

    # a sweep: once for all 8 gauges on their comparison grids, then once
    # per gauge for the CSV, and the cross-gauge divergence reads the CSV's
    # projection
    projected.clear()
    assert main(["unfold", "--x", "1,0,0", "--v", "0,0.8,0",
                 "--lambda", "0..6.28:8", "--samples", "64",
                 "--out-dir", str(tmp_path)]) == 0
    assert projected == [(8, 513)] + [(65,)] * 8


def test_unfold_through_collision():
    # radial infall: direct integration dies, the unfolded flow continues
    p0 = np.array([1.0, 0, 0, -0.5, 0, 0])
    res = unfold_kepler(p0, 6.0)
    assert res.collision
    assert res.divergence["compared"]
    # wherever both legs exist they agree
    assert res.divergence["max_position_divergence"] < 1e-8
    # the upstairs trajectory crosses (close to) the origin and keeps going
    R2 = np.sum(res.chart[:, :4] ** 2, axis=1)
    assert np.min(R2) < 1e-3
    assert res.taus[-1] == 6.0


def test_unfold_csv_and_sidecar(tmp_path):
    res = unfold_kepler(np.array([1.0, 0, 0, 0, 1.0, 0]), 1.0, compare=False,
                        n_samples=16)
    path = tmp_path / "unfold.csv"
    res.to_csv(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "tau,t,Y1,Y2,Y3,Y0,U1,U2,U3,U0,x1,x2,x3,v1,v2,v3"
    assert len(lines) == 18
    side = res.sidecar()
    assert side["grid_points"] == 17
    assert side["scaling"] == "unit"
    assert not side["collision"]


def test_unfold_rejects_origin():
    from ksunfold import LiftError

    with pytest.raises(LiftError):
        unfold_kepler(np.zeros(6), 1.0)


@pytest.mark.parametrize("p0", [
    np.arange(1.0, 8.0),                   # 7 numbers: not truncated
    np.ones(5),                            # 5 numbers: no broadcast error
    np.array([1.0, 0, 0, 0, np.nan, 0]),
    np.array([1.0, 0, 0, np.inf, 0, 0]),
    ([1.0, 0, 0], [0, 1.0, 0]),            # an (x, v) pair
], ids=["seven", "five", "nan", "inf", "pair"])
@pytest.mark.parametrize("run", [
    lambda p0: unfold_kepler(p0, 1.0, compare=False),
    lambda p0: unfold_kepler(p0, 1.0),
    lambda p0: next(unfold_sweep(p0, 1.0, [0.0, 1.0])),
], ids=["unfold", "unfold-compare", "sweep"])
def test_unfold_rejects_p0_that_is_not_six_finite_numbers(p0, run):
    with pytest.raises(ValueError, match="p0 must be 6 finite numbers"):
        run(p0)


@pytest.mark.parametrize("n_samples", [0, -3, 2.5, 4.0, "8", None, True])
@pytest.mark.parametrize("run", [
    lambda n: unfold_kepler(np.array([1.0, 0, 0, 0, 1.0, 0]), 1.0,
                            n_samples=n, compare=False),
    lambda n: unfold_kepler(np.array([1.0, 0, 0, 0, 1.0, 0]), 1.0,
                            n_samples=n),
    lambda n: next(unfold_sweep(np.array([1.0, 0, 0, 0, 1.0, 0]), 1.0,
                                [0.0, 1.0], n_samples=n)),
], ids=["unfold", "unfold-compare", "sweep"])
def test_unfold_rejects_a_bad_n_samples(n_samples, run):
    with pytest.raises(ValueError,
                       match="n_samples must be a positive integer"):
        run(n_samples)


def test_unfold_takes_any_positive_integer_n_samples():
    p0 = np.array([1.0, 0, 0, 0, 1.0, 0])
    for n in (1, np.int64(3)):
        res = unfold_kepler(p0, 1.0, n_samples=n)
        assert len(res.taus) == n + 1
        assert res.divergence["compared"]


# --- Calogero-Moser ----------------------------------------------------------

def test_calogero_preset_matches_eigenvalue_flow():
    a = -1.0 / np.sqrt(2.0)
    X0 = np.diag([0.0, 1.0])
    V0 = np.array([[0.0, a], [a, 0.0]])
    rep = reduce_calogero(X0, V0, T=2.0)
    assert rep["pass"], rep
    assert rep["max_divergence"] < 1e-6
    assert abs(rep["l"] - 1.0 / np.sqrt(2.0)) < 1e-12
    assert rep["commutator_drift"] < 1e-12


def test_calogero_eigenvalues_hand_oracle():
    # X(t) = [[0, t a], [t a, 1]]: eigenvalues (1 +- sqrt(1 + 4 t^2 a^2))/2;
    # at t = 2, a = 1/sqrt(2): (1 +- 3)/2 = {-1, 2}
    from ksunfold import calogero_moser_field

    a = 1.0 / np.sqrt(2.0)
    X0 = np.diag([0.0, 1.0])
    V0 = np.array([[0.0, a], [a, 0.0]])
    sys = calogero_moser_field(a)
    rep = reduce_calogero(X0, V0, T=2.0)
    traj = integrate(sys, np.array(rep["initial_q"] + rep["initial_qdot"]), 2.0)
    q_end = traj.states[-1][:2]
    assert np.max(np.abs(np.sort(q_end) - np.array([-1.0, 2.0]))) < 1e-6


def test_calogero_zero_coupling_is_free_motion():
    X0 = np.diag([0.0, 1.0])
    V0 = np.diag([0.25, 1.5])  # commutes with X0: l = 0
    rep = reduce_calogero(X0, V0, T=2.0, tol=1e-10)
    assert abs(rep["l"]) < 1e-14
    assert rep["max_divergence"] < 1e-10


def test_calogero_ascending_eigenvalues_at_a_rounding_tie():
    # l != 0, so the eigenvalues of X0 + t V0 never cross and ascending
    # order is the continuous labelling; on this pencil the two matchings
    # of consecutive grid points tie up to rounding
    X0 = np.array([[-0.15813022355079587, -0.555230211671607],
                   [-0.555230211671607, -0.1453449014409373]])
    V0 = np.array([[1382.0403205947948, 627.1261618584098],
                   [627.1261618584098, 1379.2262573543462]])
    rep = reduce_calogero(X0, V0, T=1.0)
    assert rep["pass"], rep
    assert rep["max_divergence"] < 1e-6


def test_calogero_input_validation():
    with pytest.raises(ValueError):
        reduce_calogero(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), 1.0)
    with pytest.raises(DegenerateStructureError):
        reduce_calogero(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)


@pytest.mark.parametrize("T", [np.nan, np.inf, -1.0])
def test_calogero_rejects_bad_horizon(T):
    X0 = np.diag([0.0, 1.0])
    V0 = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError, match="^T must be"):
        reduce_calogero(X0, V0, T=T)


def test_calogero_zero_horizon_compares_the_initial_state():
    X0 = np.diag([0.0, 1.0])
    V0 = np.array([[0.0, 0.5], [0.5, 0.0]])
    rep = reduce_calogero(X0, V0, T=0.0)
    assert rep["pass"] and rep["max_divergence"] == 0.0


# --- descent of constants ----------------------------------------------------

def _lifted_chart(states):
    """Oscillator-chart states of the gauge-0 lift of Kepler states."""
    y, u = ks_lift(states[:, :3], states[:, 3:])
    return np.concatenate(to_oscillator_chart(y, u), axis=1)


def _assert_half_of_downstairs(up_names, down_names, seed):
    # f_up(chart(lift(p))) == f_down(p) / 2, component by component, and
    # the least-squares factor over all components is one half
    states = sample_states3(100, seed=seed)
    chart = _lifted_chart(states)
    up = np.concatenate([OBSERVABLES[n](chart) for n in up_names])
    down = np.concatenate([OBSERVABLES[n](states) for n in down_names])
    assert np.max(np.abs(up - 0.5 * down)) < 1e-9
    assert abs(np.dot(up, down) / np.dot(down, down) - 0.5) < 1e-10


def test_projected_angular_momentum_is_proportional_to_downstairs():
    _assert_half_of_downstairs(("J1", "J2", "J3"), ("L1", "L2", "L3"), seed=5)


def test_projected_runge_lenz_same_factor():
    _assert_half_of_downstairs(("Q1", "Q2", "Q3"), ("A1", "A2", "A3"), seed=7)


def test_gauge_momentum_projects_to_zero():
    pts = sample_states3(50, seed=11)
    assert np.max(np.abs(OBSERVABLES["h"](_lifted_chart(pts)))) < 1e-10


def test_chart_energy_projects_to_kepler_energy():
    pts = sample_states3(50, seed=15)
    lifted = OBSERVABLES["chart_energy"](_lifted_chart(pts))
    assert np.max(np.abs(lifted - OBSERVABLES["kepler_energy"](pts))) < 1e-10


def test_non_commuting_observable_is_rejected():
    # a random quadratic form does not commute with the gauge momentum, so
    # the descent check {f, h} = 0 of the reduction criterion fails for it
    rng = rng_from_seed(17)
    P = rng.normal(size=(8, 8))
    bad = quadratic_observable(P + P.T, "bad_quadratic")
    rep = verify_structure_constants(
        chart_structure(), {"bad": bad, "h": OBSERVABLES["h"]},
        {("bad", "h"): 0}, samples=30, seed=19, tolerance=1e-10)
    assert not rep["pass"]


def test_tangency_of_conformal_field_to_gauge_level():
    # grad h . rhs = 0 on the h = 0 level: the flow never leaves the level set
    from ksunfold import conformal_kepler_field
    from ksunfold.sampling import sample_states_sigma0

    con = conformal_kepler_field()
    states = sample_states_sigma0(1000, seed=21)
    grad_h = OBSERVABLES["h_yu"].gradient(states)
    dot = np.abs(np.sum(grad_h * con.rhs(states), axis=1))
    assert np.max(dot) < 1e-10
    assert np.max(np.abs(fiber_momentum(states[:, :4], states[:, 4:]))) < 1e-12
