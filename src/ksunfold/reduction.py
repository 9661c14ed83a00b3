"""Reduction machinery: invariant submanifolds with compatible projections,
the flow-equivariance checker, and three end-to-end pipelines (radial
reduction of free motion, Calogero-Moser from a free matrix flow, and the
Kepler unfolding into the oscillator family).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import (
    DegenerateStructureError,
    DomainError,
    HorizonError,
    IntegrationError,
)
from .integrate import (
    IntegratorConfig,
    _safeguarded_newton,
    brentq,  # noqa: F401  (unused; see integrate.brentq)
    integrate,
    write_table,
)
from .phase_geometry import (
    fiber_act,
    ks_lift,
    ks_project,
    ks_tangent_velocity,
    to_oscillator_chart,
)
from .sampling import rng_from_seed, sample_states3
from .symplectic import _check_samples, chart_structure, poisson_bracket
from .systems import (
    DynamicalSystem,
    EnergyScaling,
    Observable,
    OBSERVABLES,
    _chart_energy,
    calogero_moser_field,
    conformal_kepler_field,
    free3d_field,
    kepler_field,
    oscillator_invariant,
    radial_reduced_field,
    scaling_preset,
)

__all__ = [
    "ReductionSetup",
    "radial_setup",
    "kepler_setup",
    "check_equivariance",
    "OscillatorFlow",
    "UnfoldResult",
    "unfold_kepler",
    "unfold_sweep",
    "kepler_period_from_unfold",
    "reduce_calogero",
    "project_constants",
    "projection_ratio",
    "project_tangent_state",
]


# ---------------------------------------------------------------------------
# setups and the equivariance checker
# ---------------------------------------------------------------------------

def project_tangent_state(s):
    """(y, u) upstairs state(s) -> (x, v) downstairs through the tangent map."""
    s = np.asarray(s, dtype=float)
    y, u = s[..., :4], s[..., 4:8]
    return np.concatenate(
        [ks_project(y), ks_tangent_velocity(y, u)], axis=-1
    )


@dataclass(frozen=True)
class ReductionSetup:
    """Upstairs system + constraint level set + projection + downstairs system.

    The constraint observable pins the invariant submanifold (value ==
    `target`), and the projection must send the upstairs flow restricted to
    that set onto the downstairs flow.
    """

    upstairs: DynamicalSystem
    constraint: Observable
    target: float
    projection: Callable[[np.ndarray], np.ndarray]
    downstairs: DynamicalSystem


def radial_setup(E: float) -> ReductionSetup:
    """Free 3-D motion at energy E reduced to the radial equation
    r'' = 2E/r - vr^2/r."""

    def proj(s):
        s = np.asarray(s, dtype=float)
        x, v = s[..., :3], s[..., 3:6]
        r = np.linalg.norm(x, axis=-1)
        return np.stack([r, np.sum(x * v, axis=-1) / r], axis=-1)

    free = free3d_field()
    return ReductionSetup(
        upstairs=free,
        constraint=free.energy,
        target=float(E),
        projection=proj,
        downstairs=radial_reduced_field(E=E, variant="energy"),
    )


def kepler_setup(k: float = 1.0) -> ReductionSetup:
    """Conformal Kepler flow on the zero level of the fiber momentum,
    projected through the tangent map onto the Kepler flow (same physical
    time on both legs)."""
    return ReductionSetup(
        upstairs=conformal_kepler_field(k=k),
        constraint=OBSERVABLES["h_yu"],
        target=0.0,
        projection=project_tangent_state,
        downstairs=kepler_field(k=k),
    )


def check_equivariance(
    setup: ReductionSetup,
    s0,
    T: float,
    tol: float = 1e-7,
    n_grid: int = 512,
    config: Optional[IntegratorConfig] = None,
) -> dict:
    """Integrate both legs of the reduction square from s0 over [0, T] and
    report the maximum pointwise divergence of downstairs states on a
    uniform comparison grid."""
    s0 = np.asarray(s0, dtype=float)
    resid = float(np.abs(setup.constraint(s0) - setup.target))
    if resid > 1e-10:
        raise DomainError(
            f"state violates {setup.constraint.name} = {setup.target} "
            f"(residual {resid:.3e})",
            state=s0,
        )
    report = {
        "upstairs": setup.upstairs.name,
        "downstairs": setup.downstairs.name,
        "T": float(T),
        "n_grid": int(n_grid),
        "constraint_residual": resid,
        "tolerance": float(tol),
    }
    if T == 0.0:
        report.update(max_divergence=0.0, samples=0)
        report["pass"] = True
        return report
    up = integrate(setup.upstairs, s0, T, config=config)
    down = integrate(setup.downstairs, setup.projection(s0), T, config=config)
    grid = np.linspace(0.0, T, n_grid + 1)
    path_up = setup.projection(up.eval(grid))
    path_down = down.eval(grid)
    div = float(np.max(np.linalg.norm(path_up - path_down, axis=-1)))
    report.update(max_divergence=div, samples=len(grid))
    report["pass"] = div <= tol
    return report


# ---------------------------------------------------------------------------
# Kepler unfolding
# ---------------------------------------------------------------------------

# Stumpff series c_m(z) = sum_n (-z)^n / (2n + m)!, m = 2, 3, highest n first;
# used for |z| < 1, where the closed forms cancel (relative error < 1e-18)
_STUMPFF_SERIES = np.array([[1.0 / math.factorial(2 * n + m) for m in (2, 3)]
                            for n in reversed(range(9))])

# tau_of: largest last Newton or bisection step, relative to max(1, |tau|)
_TAU_TOL = 1e-14

# a zero of Y . Y0 is a collision when |Y|^2 there is below this times
# |Y0|^2: zero up to rounding (about 1e-32), while a near-radial orbit's
# pericentre r = |Y|^2 is of order |x0 x v0|^2
_COLLISION_R2 = 1e-24


def _stumpff(z):
    """Stumpff functions (c2(z), c3(z)): (1 - cos w)/w^2 and (w - sin w)/w^3
    with w = sqrt(z) for z > 0, their cosh/sinh forms for z < 0, and the
    power series near z = 0, where all three meet.  Each element is computed
    by its own branch only (NaN by the cosh/sinh one), so cosh cannot
    overflow on an element that takes another branch."""
    z = np.asarray(z, dtype=float)
    c2, c3 = np.empty_like(z), np.empty_like(z)
    small = np.abs(z) < 1.0
    trig = (z > 0.0) & ~small
    hyp = ~(small | trig)
    if small.any():
        zs = z[small][:, None]
        series = _STUMPFF_SERIES[0]
        for coeff in _STUMPFF_SERIES[1:]:
            series = coeff - zs * series
        c2[small], c3[small] = series.T
    # products, not **: NumPy rounds array and scalar powers differently,
    # and eval at a node must reproduce the sampled state bit for bit
    if trig.any():
        w = np.sqrt(z[trig])
        c2[trig] = (1.0 - np.cos(w)) / (w * w)
        c3[trig] = (w - np.sin(w)) / (w * w * w)
    if hyp.any():
        w = np.sqrt(np.abs(z[hyp]))
        c2[hyp] = (np.cosh(w) - 1.0) / (w * w)
        c3[hyp] = (np.sinh(w) - w) / (w * w * w)
    return c2, c3


@dataclass(frozen=True)
class OscillatorFlow:
    """Exact flow of dY/dtau = g U, dU/dtau = 2 g E Y and the clock
    dt/dtau = 2 g |Y|^2 from (Y0, U0) and t = 0 at tau = 0, in Stiefel and
    Scheifele's universal variables: with alpha = -2 g^2 E and z = alpha tau^2,
    Y = c Y0 + g s U0 and U = c U0 + 2 g E s Y0, where c = 1 - z c2(z) and
    s = tau (1 - z c3(z)), for every sign of E and regular through Y = 0.  The
    clock is Kepler's equation t = 2 g [A (tau - alpha S) + B s^2 + C S] with
    S = 2 tau^3 c3(4z), A = |Y0|^2, B = g Y0.U0 and C = g^2 |U0|^2.

    `times` and `states` (Y, U, t) sample the flow at n_samples + 1 uniform
    nodes over [0, tau_end]; `monitors`, computed on first read, holds the
    oscillator invariant (== k), the gauge momentum h and the chart energy
    at force constant k there.  A span on which the closed form overflows
    raises HorizonError.
    """

    Y0: np.ndarray
    U0: np.ndarray
    E: float
    g: float
    tau_end: float
    k: float = 1.0
    n_samples: int = 512
    times: np.ndarray = dataclasses.field(init=False)
    states: np.ndarray = dataclasses.field(init=False)
    # (alpha, A, B, C) of the closed form, fixed by the start
    _coeffs: tuple = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        start = np.concatenate([self.Y0, self.U0, [self.E, self.g]])
        if not (np.all(np.isfinite(start)) and 0.0 < self.tau_end < np.inf):
            raise ValueError(f"the unfold needs finite (Y0, U0, E, g) and "
                             f"0 < tau_end < inf, got {start}, {self.tau_end}")
        g = self.g
        object.__setattr__(self, "_coeffs", (
            -2.0 * g * g * self.E,
            float(self.Y0 @ self.Y0),
            g * float(self.Y0 @ self.U0),
            g * g * float(self.U0 @ self.U0),
        ))
        times = np.linspace(0.0, float(self.tau_end), int(self.n_samples) + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            states = self.eval(times)
        finite = np.all(np.isfinite(states), axis=-1)
        if not finite.all():
            raise HorizonError(
                f"the closed-form flow overflows by tau = "
                f"{times[np.argmin(finite)]:.6g}; tau_end = "
                f"{self.tau_end:.6g} is too long for this orbit")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @functools.cached_property
    def monitors(self) -> dict:
        chart = self.states[:, :8]
        # the chart energy is 0/0 at Y = 0 itself, finite everywhere else
        with np.errstate(divide="ignore", invalid="ignore"):
            return {
                obs.name: obs.fn(chart)
                for obs in (oscillator_invariant(self.E, self.k),
                            OBSERVABLES["h"], _chart_energy(self.k))
            }

    def eval(self, tau):
        """States (Y, U, t), shape (..., 9), at tau (scalar or array)."""
        tau = np.asarray(tau, dtype=float)
        g, E = self.g, self.E
        alpha, A, B, C = self._coeffs
        z = alpha * tau * tau
        c2, c3 = _stumpff(z)
        c = 1.0 - z * c2
        s = tau * (1.0 - z * c3)
        # 2 tau^3 c3(4z), by the double-angle identity 4 c3(4z) = c2 + c3 - z c2 c3
        S = 0.5 * tau * tau * tau * (c2 + c3 - z * c2 * c3)
        t = 2.0 * g * (A * (tau - alpha * S) + B * s * s + C * S)
        c, s = c[..., None], s[..., None]
        return np.concatenate([c * self.Y0 + (g * s) * self.U0,
                               c * self.U0 + (2.0 * g * E * s) * self.Y0,
                               t[..., None]], axis=-1)

    def deriv(self, tau):
        """d(Y, U, t)/dtau at tau, from the vector field itself."""
        return self._field(self.eval(tau))

    def eval_and_deriv(self, tau):
        """(`eval(tau)`, `deriv(tau)`) from one closed-form evaluation."""
        state = self.eval(tau)
        return state, self._field(state)

    def _field(self, state):
        Y, U = state[..., :4], state[..., 4:8]
        r2 = np.sum(Y * Y, axis=-1, keepdims=True)
        return np.concatenate([self.g * U, (2.0 * self.g * self.E) * Y,
                               2.0 * self.g * r2], axis=-1)

    def collision_time(self):
        """Physical time of the first zero of Y on the sampled span, or None.

        Y stays in the plane of Y0 and U0, so it vanishes only on radial
        orbits, where Y is a multiple of Y0.  The first sign change of Y.Y0
        on the nodes is refined by Newton's method (d(Y.Y0)/dtau = g U.Y0)
        and counts when |Y|^2 is zero there up to rounding."""
        proj = self.states[:, :4] @ self.Y0
        down = np.flatnonzero((proj[:-1] > 0.0) & (proj[1:] <= 0.0))
        if not down.size:
            return None
        i = down[0]

        def fdf(tau):
            state = self.eval(tau)
            return -(state[:4] @ self.Y0), -self.g * (state[4:8] @ self.Y0)

        lo, hi = self.times[i], self.times[i + 1]
        tau = float(_safeguarded_newton(
            fdf, lo, hi, lo + (hi - lo) * proj[i] / (proj[i] - proj[i + 1]),
            _TAU_TOL))
        state = self.eval(tau)
        if state[:4] @ state[:4] > _COLLISION_R2 * (self.Y0 @ self.Y0):
            return None
        return float(state[8])


@dataclass(frozen=True)
class UnfoldResult:
    """A Kepler initial condition lifted, flowed upstairs in the oscillator
    parameter, and projected back with the accumulated physical time.
    Sampled columns live on a uniform tau grid."""

    E: float
    gauge: float
    scaling: str
    lift: np.ndarray                  # (Y0, U0) chart state, 8-vector
    taus: np.ndarray                  # (n,)
    ts: np.ndarray                    # (n,) accumulated physical time
    chart: np.ndarray                 # (n, 8) chart states on the grid
    xs: np.ndarray                    # (n, 3)
    vs: np.ndarray                    # (n, 3)
    upstairs: OscillatorFlow          # closed-form (Y, U, t) flow
    divergence: dict
    collision: bool
    config: IntegratorConfig          # of the direct comparison leg
    direct_leg: Optional[dict] = None  # what the direct leg did

    def t_of(self, tau):
        """Physical time at oscillator parameter tau."""
        return np.asarray(self.upstairs.eval(tau))[..., 8]

    def tau_of(self, t):
        """Invert the time map on the sampled span (scalar or array); times
        outside it clamp to the first or last tau.

        Each time is bracketed between two sample nodes and the closed-form
        clock is solved there by Newton's method (dt/dtau = 2 g |Y|^2),
        safeguarded by bisection where Y = 0 flattens it, on all times at
        once, until every last step is at most 1e-14 max(1, |tau|).
        """
        up = self.upstairs
        nodes = up.states[:, 8]
        target = np.clip(np.asarray(t, dtype=float), nodes[0], nodes[-1])
        j = np.clip(np.searchsorted(nodes, target), 1, len(nodes) - 1)

        def fdf(tau):
            state = up.eval(tau)
            return (state[..., 8] - target,
                    2.0 * up.g * np.sum(state[..., :4] ** 2, axis=-1))

        return _safeguarded_newton(fdf, up.times[j - 1], up.times[j],
                                   np.interp(target, nodes, up.times),
                                   _TAU_TOL)

    def to_csv(self, path):
        cols = (
            ["tau", "t"]
            + ["Y1", "Y2", "Y3", "Y0", "U1", "U2", "U3", "U0"]
            + ["x1", "x2", "x3", "v1", "v2", "v3"]
        )
        write_table(path, cols, np.column_stack(
            [self.taus, self.ts, self.chart, self.xs, self.vs]))

    def sidecar(self) -> dict:
        return {
            "E": self.E,
            "gauge_lambda": self.gauge,
            "scaling": self.scaling,
            "collision": self.collision,
            "rel_tol": self.config.rel_tol,
            "abs_tol": self.config.abs_tol,
            "tau_end": float(self.taus[-1]),
            "t_end": float(self.ts[-1]),
            "samples": int(len(self.taus)),
            "divergence": self.divergence,
            "direct_leg": self.direct_leg,
        }


def _split_state(p0):
    """(x, v) from a State3, an (x, v) pair or a 6-vector."""
    if hasattr(p0, "x") and hasattr(p0, "v"):
        return np.asarray(p0.x, float), np.asarray(p0.v, float)
    arr = np.asarray(p0, dtype=float).reshape(-1)
    return arr[:3], arr[3:6]


def unfold_kepler(
    p0,
    tau_end: float,
    scaling: Optional[EnergyScaling] = None,
    gauge: float = 0.0,
    config: Optional[IntegratorConfig] = None,
    k: float = 1.0,
    n_samples: int = 512,
    compare: bool = True,
    compare_points: int = 512,
) -> UnfoldResult:
    """Lift a Kepler state, flow the completed oscillator field and its
    physical-time clock in tau in closed form (`OscillatorFlow`), and project
    back downstairs.  `config` sets only the direct comparison leg.

    `p0` is a State3 or a (x, v) pair / 6-vector.  The returned result
    samples everything on a uniform tau grid of n_samples+1 points and, when
    `compare` is set, holds the divergence against direct Kepler integration
    on a shared physical-time grid (truncated to wherever direct integration
    survives; radial collisions downstairs set the `collision` flag while
    the upstairs trajectory continues through Y = 0).  With `compare` set
    this is the one-gauge case of `unfold_sweep`.
    """
    if compare:
        return next(unfold_sweep(
            p0, tau_end, [gauge], scaling=scaling, config=config, k=k,
            n_samples=n_samples, compare_points=compare_points,
        ))
    cfg = config or IntegratorConfig()
    x0, v0 = _split_state(p0)
    y0, u0 = ks_lift(x0, v0, gauge)
    Y0, U0 = to_oscillator_chart(y0, u0)
    E = float((0.5 * np.dot(U0, U0) - k) / np.dot(Y0, Y0))
    scaling = scaling or scaling_preset("unit")
    g = float(scaling(E))

    up = OscillatorFlow(Y0, U0, E, g, float(tau_end), k, int(n_samples))
    taus = up.times
    chart = up.states[:, :8]
    ts = up.states[:, 8]
    xs = ks_project(chart[:, :4])
    r2 = np.sum(chart[:, :4] ** 2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_nat = chart[:, 4:8] / (2.0 * r2)[:, None]
        vs = ks_tangent_velocity(chart[:, :4], u_nat)

    return UnfoldResult(
        E=E,
        gauge=float(gauge),
        scaling=scaling.name,
        lift=np.concatenate([Y0, U0]),
        taus=taus,
        ts=ts,
        chart=chart,
        xs=xs,
        vs=vs,
        upstairs=up,
        divergence={"compared": False},
        collision=False,
        config=cfg,
    )


def unfold_sweep(
    p0,
    tau_end: float,
    gauges: Iterable[float],
    scaling: Optional[EnergyScaling] = None,
    config: Optional[IntegratorConfig] = None,
    k: float = 1.0,
    n_samples: int = 512,
    compare_points: int = 512,
) -> Iterator[UnfoldResult]:
    """Unfold `p0` at each gauge angle in turn and yield each result, with
    its comparison against direct Kepler integration, as soon as it is done.

    The direct leg does not depend on the gauge: it is integrated once,
    with the first gauge, over that gauge's physical-time span (cut short
    when that gauge's closed form meets a collision), and every gauge is
    compared against it on the grid up to the shorter of its own span and
    the leg's.
    """
    cfg = config or IntegratorConfig()
    x0, v0 = _split_state(p0)
    leg = None
    for gauge in gauges:
        result = unfold_kepler(
            p0, tau_end, scaling=scaling, gauge=gauge, config=cfg, k=k,
            n_samples=n_samples, compare=False,
        )
        if leg is None:
            leg = _direct_leg(x0, v0, float(result.ts[-1]), k, cfg,
                              result.upstairs.collision_time())
        divergence, collision = _compare_downstairs(result, leg, compare_points)
        yield dataclasses.replace(result, divergence=divergence,
                                  collision=collision, direct_leg=leg[3])


def _direct_leg(x0, v0, t_total, k, cfg, t_collision=None):
    """Integrate Kepler directly over [0, t_total], or over 95% of
    t_collision when the closed form has located a collision; after any
    failure retry up to 95% of the time reached.  Returns (trajectory or
    None, time reached, whether a collision cut the leg short, record).
    The record holds where the horizon came from, the number of attempts,
    the counts of the integration the comparison uses and, when attempts
    failed, their summed counts (`failed_rhs_evals`,
    `failed_rejected_steps`, `failed_domain_retries`)."""
    kepler = kepler_field(k=k)
    s0 = np.concatenate([x0, v0])
    collision = t_collision is not None
    t_cmp = 0.95 * t_collision if collision else t_total
    record = {"horizon": "collision" if collision else "span", "attempts": 0}
    for _ in range(8):
        if t_cmp <= 0.0:
            break
        record["attempts"] += 1
        try:
            # nothing reads the leg's monitors
            traj = integrate(kepler, s0, t_cmp, config=cfg, monitors=())
        except IntegrationError as exc:
            for key, count in exc.stats.items():
                failed = f"failed_{key}"
                record[failed] = record.get(failed, 0) + count
            collision = True
            reached = exc.t if exc.t is not None else 0.0
            t_cmp = 0.95 * reached
            continue
        record.update(rhs_evals=traj.stats["rhs_evals"],
                      accepted_steps=len(traj.times) - 1,
                      rejected_steps=traj.stats["rejected_steps"])
        return traj, t_cmp, collision, record
    return None, 0.0, True, record


def _compare_downstairs(result, leg, compare_points):
    """Measure the divergence of the projected unfold from the direct leg
    on a shared physical-time grid."""
    direct, t_leg, collision, _ = leg
    if direct is None:
        return {"compared": False, "collision": True, "t_compared": 0.0}, True

    t_cmp = min(float(result.ts[-1]), t_leg)
    grid = np.linspace(0.0, t_cmp, int(compare_points) + 1)
    taus = result.tau_of(grid)
    states = result.upstairs.eval(taus)
    Y, U = states[..., :4], states[..., 4:8]
    xs = ks_project(Y)
    r2 = np.sum(Y * Y, axis=-1)
    vs = ks_tangent_velocity(Y, U / (2.0 * r2)[..., None])
    down = direct.eval(grid)
    dx = np.linalg.norm(down[:, :3] - xs, axis=-1)
    dv = np.linalg.norm(down[:, 3:6] - vs, axis=-1)
    return {
        "compared": True,
        "collision": collision,
        "t_compared": float(t_cmp),
        "n_points": int(len(grid)),
        "max_position_divergence": float(np.max(dx)),
        "max_velocity_divergence": float(np.max(dv)),
    }, collision


def kepler_period_from_unfold(result: UnfoldResult, tol: float = 1e-6) -> dict:
    """Extract periods from an unfold: the upstairs tau-period (first return
    of the chart state) and the physical times of the half and full
    tau-period.  The flow downstairs closes after HALF the upstairs period
    (the lift double-covers the orbit), so `t_half` is the Kepler period."""
    from .integrate import find_return_time

    tau_period = find_return_time(
        result.upstairs,
        result.upstairs.states[0],
        tol,
        components=range(8),
    )
    t_half, t_full = result.t_of(np.array([tau_period / 2.0, tau_period]))
    return {"tau_period": tau_period, "t_half": float(t_half),
            "t_full": float(t_full)}


# ---------------------------------------------------------------------------
# Calogero-Moser
# ---------------------------------------------------------------------------

_SIGMA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def reduce_calogero(
    X0,
    V0,
    T: float,
    n_grid: int = 512,
    tol: float = 1e-6,
    gap_min: float = 1e-9,
    config: Optional[IntegratorConfig] = None,
) -> dict:
    """Compare the eigenvalue flow of the free matrix motion X(t) = X0 + t V0
    with the two-body Calogero-Moser equations at the coupling read off the
    initial matrices.

    The conserved commutator M = [X, Xdot] determines the coupling through
    l = -Tr(M sigma)/2; eigenvalues are kept in ascending order with a
    nearest-match swap check between grid points, and a gap below `gap_min`
    is reported as a degeneracy.
    """
    X0 = np.asarray(X0, dtype=float)
    V0 = np.asarray(V0, dtype=float)
    for name, A in (("X0", X0), ("V0", V0)):
        if A.shape != (2, 2) or abs(A[0, 1] - A[1, 0]) > 1e-12:
            raise ValueError(f"{name} must be symmetric 2x2")
    M = X0 @ V0 - V0 @ X0
    l = -0.5 * float(np.trace(M @ _SIGMA))

    q0, G = np.linalg.eigh(X0)
    if q0[1] - q0[0] < gap_min:
        raise DegenerateStructureError(
            f"X0 eigenvalue gap {q0[1] - q0[0]:.3e} below {gap_min:g}",
            state=X0,
        )
    qd0 = np.diag(G.T @ V0 @ G)

    grid = np.linspace(0.0, float(T), int(n_grid) + 1)
    eigs = np.empty((len(grid), 2))
    prev = q0
    m_drift = 0.0
    for i, t in enumerate(grid):
        Xt = X0 + t * V0
        m_drift = max(m_drift, float(np.max(np.abs((Xt @ V0 - V0 @ Xt) - M))))
        w = np.linalg.eigh(Xt)[0]
        # continuity tracking: prefer the assignment closest to the last point
        if (abs(w[0] - prev[0]) + abs(w[1] - prev[1])
                > abs(w[1] - prev[0]) + abs(w[0] - prev[1])):
            w = w[::-1]
        if abs(w[1] - w[0]) < gap_min:
            raise DegenerateStructureError(
                f"eigenvalue collision at t={t:.6g} "
                f"(gap {abs(w[1] - w[0]):.3e})",
                state=Xt,
            )
        eigs[i] = w
        prev = w

    system = calogero_moser_field(l, gap_min=gap_min)
    s0 = np.array([q0[0], q0[1], qd0[0], qd0[1]])
    if T > 0:
        traj = integrate(system, s0, float(T), config=config)
        q_path = traj.eval(grid)[:, :2]
    else:
        q_path = s0[None, :2]
    div = float(np.max(np.abs(q_path - eigs)))
    return {
        "l": l,
        "T": float(T),
        "n_grid": int(n_grid),
        "max_divergence": div,
        "commutator_drift": m_drift,
        "tolerance": float(tol),
        "pass": bool(div <= tol),
        "initial_q": [float(v) for v in q0],
        "initial_qdot": [float(v) for v in qd0],
    }


# ---------------------------------------------------------------------------
# projecting constants of motion
# ---------------------------------------------------------------------------

def project_constants(
    obs: Observable,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> Observable:
    """Turn a chart observable that commutes with the fiber momentum into a
    function of the downstairs state: f_down(p) = f(lift(p)).

    Commutation {f, h} = 0 and fiber-invariance are verified numerically at
    random states first; a failing observable is rejected with the measured
    residual, since without those properties the value would depend on the
    choice of lift.
    """
    samples = _check_samples(samples)
    struct = chart_structure()
    states = np.asarray(
        sample_states3(samples, seed=seed), dtype=float
    )
    lam = rng_from_seed(seed + 1).uniform(0.0, 2.0 * np.pi, size=samples)
    y, u = ks_lift(states[:, :3], states[:, 3:], lam)
    chart = np.concatenate([y, 2.0 * np.sum(y * y, axis=-1)[:, None] * u], axis=1)

    resid = float(np.max(np.abs(
        poisson_bracket(struct, obs, OBSERVABLES["h"], chart)
    )))
    if resid > tol:
        raise ValueError(
            f"{obs.name} does not commute with the fiber momentum "
            f"(max residual {resid:.3e} > {tol:g})"
        )
    lam2 = rng_from_seed(seed + 2).uniform(0.0, 2.0 * np.pi, size=samples)
    y2, u2 = fiber_act(y, u, lam2)
    chart2 = np.concatenate(
        [y2, 2.0 * np.sum(y2 * y2, axis=-1)[:, None] * u2], axis=1
    )
    fiber_dev = float(np.max(np.abs(obs.fn(chart) - obs.fn(chart2))))
    if fiber_dev > tol:
        raise ValueError(
            f"{obs.name} is not constant along fibers "
            f"(max deviation {fiber_dev:.3e} > {tol:g})"
        )

    def fn(s):
        s = np.asarray(s, dtype=float)
        yl, ul = ks_lift(s[..., :3], s[..., 3:6])
        r2 = np.sum(yl * yl, axis=-1)
        return obs.fn(
            np.concatenate([yl, 2.0 * r2[..., None] * ul], axis=-1)
        )

    return Observable(f"{obs.name}_down", 6, fn)


def projection_ratio(
    up_names,
    down_names,
    samples: int = 200,
    seed: int = 0,
) -> dict:
    """Least-squares constant c with f_up(lift(p)) = c * f_down(p) across
    random downstairs states and all listed components; reports the fitted c
    and the worst absolute residual, which is small only if a single global
    constant works for every component at every state."""
    states = sample_states3(samples, seed=seed)
    ups, downs = [], []
    for un, dn in zip(up_names, down_names):
        f_down = project_constants(OBSERVABLES[un], samples=50, seed=seed)
        ups.append(f_down.fn(states))
        downs.append(OBSERVABLES[dn].fn(states))
    up = np.concatenate(ups)
    down = np.concatenate(downs)
    c = float(np.dot(up, down) / np.dot(down, down))
    resid = float(np.max(np.abs(up - c * down)))
    return {
        "pairs": list(zip(up_names, down_names)),
        "ratio": c,
        "max_residual": resid,
        "samples": samples,
    }
