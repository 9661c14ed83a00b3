"""Reduction machinery: invariant submanifolds with compatible projections,
the flow-equivariance checker, and three end-to-end pipelines (radial
reduction of free motion, Calogero-Moser from a free matrix flow, and the
Kepler unfolding into the oscillator family).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections import namedtuple
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
    _ROOT_TOL,
    _safeguarded_newton,
    _up_crossings,
    brentq,  # noqa: F401  (unused; see integrate.brentq)
    find_return_time,
    integrate,
)
from .output import write_table
from .phase_geometry import (
    _component_last,
    ks_lift,
    ks_tangent,
    to_oscillator_chart,
)
from .systems import (
    _CALOGERO_GAP,
    DynamicalSystem,
    EnergyScaling,
    Observable,
    OBSERVABLES,
    _chart_energy,
    _positive_count,
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
    "project_tangent_state",
]


# intervals of the uniform comparison grids of `check_equivariance`,
# `reduce_calogero` and the unfold's direct comparison leg
_GRID_POINTS = 512


# ---------------------------------------------------------------------------
# setups and the equivariance checker
# ---------------------------------------------------------------------------

def project_tangent_state(s):
    """(y, u) upstairs state(s) -> (x, v) downstairs through the tangent map."""
    s = np.asarray(s, dtype=float)
    return np.concatenate(ks_tangent(s[..., :4], s[..., 4:8]), axis=-1)


def _downstairs(chart):
    """(x, v) of oscillator-chart states (Y, U): the tangent map at
    u = U / (2 |Y|^2), with a NaN velocity where Y = 0.  Every column is
    read on its own, which is contiguous when `chart` is a view of a
    component-major block."""
    Y, U = chart[..., :4], chart[..., 4:8]
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = _squared_norm(Y[..., i] for i in range(4))
        return ks_tangent(Y, U / (2.0 * r2)[..., None])


def _squared_norm(rows):
    """|Y|^2 from the components (Y1, Y2, Y3, Y0), summed left to right, as
    np.sum sums a length-4 axis."""
    Y1, Y2, Y3, Y0 = rows
    return ((Y1 * Y1 + Y2 * Y2) + Y3 * Y3) + Y0 * Y0


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


def kepler_setup() -> ReductionSetup:
    """Conformal Kepler flow on the zero level of the fiber momentum,
    projected through the tangent map onto the Kepler flow (same physical
    time on both legs)."""
    return ReductionSetup(
        upstairs=conformal_kepler_field(),
        constraint=OBSERVABLES["h_yu"],
        target=0.0,
        projection=project_tangent_state,
        downstairs=kepler_field(),
    )


def check_equivariance(
    setup: ReductionSetup,
    s0,
    T: float,
    tol: float = 1e-7,
    config: Optional[IntegratorConfig] = None,
) -> dict:
    """Integrate both legs of the reduction square from s0 over [0, T] and
    report the maximum pointwise divergence of downstairs states on a
    uniform comparison grid of _GRID_POINTS intervals."""
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
        "n_grid": _GRID_POINTS,
        "constraint_residual": resid,
        "tolerance": float(tol),
    }
    if T == 0.0:
        report.update(max_divergence=0.0, grid_points=0)
        report["pass"] = True
        return report
    up = integrate(setup.upstairs, s0, T, config=config)
    down = integrate(setup.downstairs, setup.projection(s0), T, config=config)
    grid = np.linspace(0.0, T, _GRID_POINTS + 1)
    path_up = setup.projection(up.eval(grid))
    path_down = down.eval(grid)
    div = float(np.max(np.linalg.norm(path_up - path_down, axis=-1)))
    report.update(max_divergence=div, grid_points=len(grid))
    report["pass"] = div <= tol
    return report


# ---------------------------------------------------------------------------
# Kepler unfolding
# ---------------------------------------------------------------------------

# Stumpff series c_m(z) = sum_n (-z)^n / (2n + m)!, m = 2, 3, highest n first,
# as rows of (c2, c3) coefficients; used for |z| < 1, where the closed forms
# cancel (relative error < 1e-18)
_STUMPFF_ROWS = tuple((1.0 / math.factorial(2 * n + 2),
                       1.0 / math.factorial(2 * n + 3))
                      for n in reversed(range(9)))

# the single-tau route takes |z| below this: there w = sqrt|z| < 700, so
# cosh and sinh stay finite and no Stumpff denominator overflows
_SCALAR_Z_MAX = 700.0 ** 2

# gauges a sweep compares in one batch: the sweep size of the benchmark
# and the gallery
_SWEEP_BATCH = 8

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
        zs = z[small]
        s2, s3 = _STUMPFF_ROWS[0]
        for k2, k3 in _STUMPFF_ROWS[1:]:
            s2, s3 = k2 - zs * s2, k3 - zs * s3
        c2[small], c3[small] = s2, s3
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


# the closed forms of G flows, one row each: g, E and `_coeffs` (alpha, A,
# B, C) as (G, 1) columns (floats for one flow), and Y0 and U0
# component-major, shape (4, G, 1)
_Columns = namedtuple("_Columns", "g E alpha A B C Y0 U0")


def _columns(flows) -> _Columns:
    if len(flows) == 1:  # floats, which NumPy applies faster than columns
        f, = flows
        return _Columns(f.g, f.E, *f._coeffs, f.Y0[:, None, None],
                        f.U0[:, None, None])
    cols = np.array([(f.g, f.E, *f._coeffs, *f.Y0.tolist(), *f.U0.tolist())
                     for f in flows]).T[..., None]
    return _Columns(cols[0], cols[1], cols[2], cols[3], cols[4], cols[5],
                    cols[6:10], cols[10:])


def _clock(cols, tau):
    """(t, Y, c, s) at (G, m) taus, row i on flow i of `cols`: the clock,
    Y = c Y0 + g s U0 as component-major rows, shape (4, G, m), and c and
    s, which U = c U0 + 2 g E s Y0 takes.  One flow (G = 1) has floats."""
    g, alpha, A, B, C = cols.g, cols.alpha, cols.A, cols.B, cols.C
    z = alpha * tau * tau
    c2, c3 = _stumpff(z)
    c = 1.0 - z * c2
    s = tau * (1.0 - z * c3)
    # 2 tau^3 c3(4z), by the double-angle identity 4 c3(4z) = c2 + c3 - z c2 c3
    S = 0.5 * tau * tau * tau * (c2 + c3 - z * c2 * c3)
    t = 2.0 * g * (A * (tau - alpha * S) + B * s * s + C * S)
    return t, cols.Y0 * c + cols.U0 * (g * s), c, s


def _states(cols, tau):
    """The component-major (9, G, m) block of (Y, U, t) at (G, m) taus,
    row i on flow i of `cols`."""
    t, Y, c, s = _clock(cols, tau)
    U = cols.U0 * c + cols.Y0 * (2.0 * cols.g * cols.E * s)
    return np.concatenate([Y, U, t[None]])


def _invert_clocks(flows, t):
    """Invert the time maps at (G, m) physical times t, row i on flows[i],
    on each flow's sampled span: times outside it clamp to its first or
    last tau.

    Each time is bracketed between two sample nodes and the closed-form
    clock is solved there by Newton's method (dt/dtau = 2 g |Y|^2),
    safeguarded by bisection where Y = 0 flattens it, on all times at once;
    each row stops on its own (`_safeguarded_newton`), so a flow's taus are
    the same in any batch."""
    target, lo, hi, start = np.empty((4,) + t.shape)
    for i, (up, row) in enumerate(zip(flows, t)):
        nodes = up.states[:, 8]
        target[i] = np.clip(row, nodes[0], nodes[-1])
        j = np.clip(np.searchsorted(nodes, target[i]), 1, len(nodes) - 1)
        lo[i], hi[i] = up.times[j - 1], up.times[j]
        start[i] = np.interp(target[i], nodes, up.times)
    cols = _columns(flows)

    def fdf(tau):
        t, Y, _, _ = _clock(cols, tau)  # U is not needed
        return t - target, 2.0 * cols.g * _squared_norm(Y)

    return _safeguarded_newton(fdf, lo, hi, start, _ROOT_TOL)


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
    nodes over [0, tau_end].  The samples are stored component-major, as
    one C-contiguous (9, n_samples + 1) block, and `states` is its
    (n_samples + 1, 9) view, so each of its columns is contiguous; `eval`
    returns the same kind of view.  `monitors`, computed on first read,
    holds the oscillator invariant (== k), the gauge momentum h and the
    chart energy at force constant k there.  A span on which the closed
    form overflows raises HorizonError.
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
        n = _positive_count("n_samples", self.n_samples)
        times = np.linspace(0.0, float(self.tau_end), n + 1)
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
        # the quadratic observables go through matmul and einsum, whose
        # kernels, and so whose last bits, depend on the layout they read
        chart = np.ascontiguousarray(self.states[:, :8])
        # the chart energy is 0/0 at Y = 0 itself, finite everywhere else
        with np.errstate(divide="ignore", invalid="ignore"):
            return {
                obs.name: obs.fn(chart)
                for obs in (oscillator_invariant(self.E),
                            OBSERVABLES["h"], _chart_energy(self.k))
            }

    def eval(self, tau):
        """States (Y, U, t), shape (..., 9), at tau (scalar or array): the
        view of their component-major (9, ...) block.  A single tau (0-d)
        takes `_scalar_clock`, unless it declines; arrays, and the taus it
        declines, take the array path (`_states` of this one flow), which
        is its test oracle."""
        tau = np.asarray(tau, dtype=float)
        if tau.ndim == 0:
            clock = self._scalar_clock(float(tau))
            if clock is not None:
                t, Y, c, s = clock
                U = c * self.U0 + (2.0 * self.g * self.E * s) * self.Y0
                return np.concatenate([Y, U, [t]])
        block = _states(_columns([self]), tau.reshape(1, -1))
        return _component_last(block.reshape((9,) + tau.shape))

    def _scalar_clock(self, tau):
        """`_clock` at one tau in Python floats, with t, c and s floats and
        Y of shape (4,): the array path's operations in its order, and
        NumPy's own cos, sin, cosh and sinh, so every bit agrees.  None,
        for the array path to redo with its NaNs and warnings, unless
        |z| < _SCALAR_Z_MAX and t, c and s are finite (a float overflows
        silently)."""
        g = self.g
        alpha, A, B, C = self._coeffs
        z = alpha * tau * tau
        if not abs(z) < _SCALAR_Z_MAX:
            return None
        if abs(z) < 1.0:
            c2, c3 = _STUMPFF_ROWS[0]
            for k2, k3 in _STUMPFF_ROWS[1:]:
                c2, c3 = k2 - z * c2, k3 - z * c3
        elif z > 0.0:
            w = math.sqrt(z)
            c2 = (1.0 - float(np.cos(w))) / (w * w)
            c3 = (w - float(np.sin(w))) / (w * w * w)
        else:
            w = math.sqrt(-z)
            c2 = (float(np.cosh(w)) - 1.0) / (w * w)
            c3 = (float(np.sinh(w)) - w) / (w * w * w)
        c = 1.0 - z * c2
        s = tau * (1.0 - z * c3)
        S = 0.5 * tau * tau * tau * (c2 + c3 - z * c2 * c3)
        t = 2.0 * g * (A * (tau - alpha * S) + B * s * s + C * S)
        if not (math.isfinite(t) and math.isfinite(c) and math.isfinite(s)):
            return None
        return t, c * self.Y0 + (g * s) * self.U0, c, s

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
        on the nodes, an up-crossing of -(Y.Y0), is refined by Newton's
        method (d(Y.Y0)/dtau = g U.Y0) and counts when |Y|^2 is zero there
        up to rounding."""
        def fdf(tau):
            state = self.eval(tau)
            return -(state[:4] @ self.Y0), -self.g * (state[4:8] @ self.Y0)

        # a BLAS product, whose kernel, and so whose last bits, depend on the
        # layout it reads
        Y = np.ascontiguousarray(self.states[:, :4])
        tau = next(_up_crossings(self.times, -(Y @ self.Y0), fdf), None)
        if tau is None:
            return None
        state = self.eval(tau)
        if state[:4] @ state[:4] > _COLLISION_R2 * (self.Y0 @ self.Y0):
            return None
        return float(state[8])


@dataclass(frozen=True)
class UnfoldResult:
    """A Kepler initial condition lifted, flowed upstairs in the oscillator
    parameter, and projected back with the accumulated physical time.
    Sampled columns live on a uniform tau grid."""

    gauge: float
    scaling: str
    upstairs: OscillatorFlow          # closed-form (Y, U, t) flow
    divergence: dict
    collision: bool
    config: IntegratorConfig          # of the direct comparison leg
    direct_leg: Optional[dict] = None  # what the direct leg did

    # views of the flow: (n,) taus and physical times ts, (n, 8) chart
    # states (Y, U); (n, 3) xs and vs, projected downstairs on first read.
    # The (n, k) ones are views of component-major blocks.
    E = property(lambda self: self.upstairs.E)
    taus = property(lambda self: self.upstairs.times)
    ts = property(lambda self: self.upstairs.states[:, 8])
    chart = property(lambda self: self.upstairs.states[:, :8])
    xs = property(lambda self: self._projected[0])
    vs = property(lambda self: self._projected[1])

    @functools.cached_property
    def _projected(self) -> tuple:
        return _downstairs(self.chart)

    def t_of(self, tau):
        """Physical time at oscillator parameter tau."""
        return np.asarray(self.upstairs.eval(tau))[..., 8]

    def tau_of(self, t):
        """Invert the time map on the sampled span (scalar or array); times
        outside it clamp to the first or last tau.  The one-flow case of
        `_invert_clocks`, with t as one row."""
        t = np.asarray(t, dtype=float)
        tau = _invert_clocks([self.upstairs], t.reshape(1, -1))
        return tau.reshape(t.shape)[()]

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
            "method": "dop853",
            "rel_tol": self.config.rel_tol,
            "abs_tol": self.config.abs_tol,
            "tau_end": float(self.taus[-1]),
            "t_end": float(self.ts[-1]),
            "grid_points": int(len(self.taus)),
            "divergence": self.divergence,
            "direct_leg": self.direct_leg,
        }


def _split_state(p0):
    """(x, v) of a Kepler state given as 6 finite numbers."""
    try:
        arr = np.asarray(p0, dtype=float)
        ok = arr.shape == (6,) and np.isfinite(arr).all()
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"p0 must be 6 finite numbers (x, v), got {p0!r}")
    return arr[:3], arr[3:]


def unfold_kepler(
    p0,
    tau_end: float,
    scaling: Optional[EnergyScaling] = None,
    gauge: float = 0.0,
    config: Optional[IntegratorConfig] = None,
    k: float = 1.0,
    n_samples: int = 512,
    compare: bool = True,
) -> UnfoldResult:
    """Lift a Kepler state, flow the completed oscillator field and its
    physical-time clock in tau in closed form (`OscillatorFlow`), and project
    back downstairs.  `config` sets only the direct comparison leg.

    `p0` is the 6-vector (x, v); anything else raises ValueError.  The
    returned result samples everything on a uniform tau grid of n_samples+1
    points and, when `compare` is set, holds the divergence against direct
    Kepler integration on a shared physical-time grid (truncated to wherever
    direct integration survives; radial collisions downstairs set the
    `collision` flag while the upstairs trajectory continues through Y = 0).
    With `compare` set this is the one-gauge case of `unfold_sweep`.
    """
    if compare:
        return next(unfold_sweep(
            p0, tau_end, [gauge], scaling=scaling, config=config, k=k,
            n_samples=n_samples,
        ))
    cfg = config or IntegratorConfig()
    x0, v0 = _split_state(p0)
    y0, u0 = ks_lift(x0, v0, gauge)
    Y0, U0 = to_oscillator_chart(y0, u0)
    E = float((0.5 * np.dot(U0, U0) - k) / np.dot(Y0, Y0))
    scaling = scaling or scaling_preset("unit")
    g = float(scaling(E))

    return UnfoldResult(
        gauge=float(gauge),
        scaling=scaling.name,
        upstairs=OscillatorFlow(Y0, U0, E, g, float(tau_end), k, n_samples),
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
) -> Iterator[UnfoldResult]:
    """Unfold `p0` at each gauge angle and yield the results in order, each
    with its comparison against direct Kepler integration.

    The gauges go in batches of _SWEEP_BATCH: the flows of a batch are
    built, compared together in one pass (`_compare_downstairs`), and then
    yielded.  A gauge whose flow cannot be built raises after the results
    of the gauges before it.

    The direct leg does not depend on the gauge: it is integrated once,
    with the first gauge, over that gauge's physical-time span (cut short
    when that gauge's closed form meets a collision), and every gauge is
    compared against it on the grid up to the shorter of its own span and
    the leg's.  `config` sets the leg.
    """
    cfg = config or IntegratorConfig()
    x0, v0 = _split_state(p0)
    gauges = iter(gauges)
    leg = None
    while True:
        batch, error = [], None
        try:
            for gauge in itertools.islice(gauges, _SWEEP_BATCH):
                batch.append(unfold_kepler(
                    p0, tau_end, scaling=scaling, gauge=gauge, config=cfg,
                    k=k, n_samples=n_samples, compare=False,
                ))
        except Exception as exc:  # noqa: BLE001 - raised after the gauges
            error = exc             # before it are yielded
        if batch:
            if leg is None:
                leg = _direct_leg(x0, v0, float(batch[0].ts[-1]), k, cfg,
                                  batch[0].upstairs.collision_time())
            for result, divergence in zip(batch,
                                          _compare_downstairs(batch, leg)):
                yield dataclasses.replace(result, divergence=divergence,
                                          collision=leg[2], direct_leg=leg[3])
        if error is not None:
            raise error
        if len(batch) < _SWEEP_BATCH:
            return


def _direct_leg(x0, v0, t_total, k, cfg, t_collision=None):
    """Integrate Kepler directly over [0, t_total], or over 95% of
    t_collision when the closed form has located a collision; after any
    failure retry up to 95% of the time reached (0 for a start the field
    refuses, a DomainError).  Returns (trajectory or None, time reached,
    whether a collision cut the leg short, record, its values on each
    comparison grid by the grid's end, which `_compare_downstairs`
    fills).  The record holds where the horizon came from, the number of
    attempts, the counts of the integration the comparison uses and, when
    attempts failed, their summed counts (`failed_rhs_evals`,
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
        except (IntegrationError, DomainError) as exc:
            for key, count in getattr(exc, "stats", {}).items():
                failed = f"failed_{key}"
                record[failed] = record.get(failed, 0) + count
            collision = True
            t_cmp = 0.95 * (getattr(exc, "t", None) or 0.0)
            continue
        record.update(rhs_evals=traj.stats["rhs_evals"],
                      accepted_steps=len(traj.times) - 1,
                      rejected_steps=traj.stats["rejected_steps"])
        return traj, t_cmp, collision, record, {}
    return None, 0.0, True, record, {}


def _compare_downstairs(results, leg):
    """Measure the divergence of each projected unfold from the direct leg
    on a physical-time grid it shares with the leg, all in one pass: the
    clocks are inverted, and the flows evaluated and projected downstairs,
    on one (G, _GRID_POINTS + 1) grid.  The leg is evaluated once per
    grid."""
    direct, t_leg, collision, _, on_grid = leg
    if direct is None:
        return [{"compared": False, "collision": True, "t_compared": 0.0}
                for _ in results]

    flows = [result.upstairs for result in results]
    t_cmp = [min(float(result.ts[-1]), t_leg) for result in results]
    grids = np.array([np.linspace(0.0, t, _GRID_POINTS + 1) for t in t_cmp])
    taus = _invert_clocks(flows, grids)
    xs, vs = _downstairs(_component_last(_states(_columns(flows), taus)))
    for t, grid in zip(t_cmp, grids):
        if t not in on_grid:
            on_grid[t] = direct.eval(grid)
    down = np.array([on_grid[t] for t in t_cmp])
    dx = np.max(np.linalg.norm(down[..., :3] - xs, axis=-1), axis=-1)
    dv = np.max(np.linalg.norm(down[..., 3:6] - vs, axis=-1), axis=-1)
    return [{
        "compared": True,
        "collision": collision,
        "t_compared": float(t),
        "n_points": _GRID_POINTS + 1,
        "max_position_divergence": float(x),
        "max_velocity_divergence": float(v),
    } for t, x, v in zip(t_cmp, dx, dv)]


def kepler_period_from_unfold(result: UnfoldResult) -> dict:
    """Extract periods from an unfold: the upstairs tau-period (first return
    of the chart state) and the physical times of the half and full
    tau-period.  The flow downstairs closes after HALF the upstairs period
    (the lift double-covers the orbit), so `t_half` is the Kepler period.

    Raises ValueError for E >= 0, which has no period, and for a `tau_end`
    shorter than the tau-period 2 pi / (g sqrt(-2E))."""
    up = result.upstairs
    if not up.E < 0.0:
        raise ValueError(f"an orbit with E = {up.E!r} >= 0 has no period")
    tau_ref = 2.0 * math.pi / (up.g * math.sqrt(-2.0 * up.E))
    if up.tau_end < tau_ref:
        raise ValueError(f"tau_end = {up.tau_end!r} is shorter than the "
                         f"tau-period 2 pi / (g sqrt(-2E)) = {tau_ref!r}")
    # the return tolerance is relative to the orbit's scale: at |(Y0, U0)|
    # of 1e9 and more, rounding alone puts the first return beyond 1e-6
    start = up.states[0]
    tol = 1e-6 * max(1.0, float(np.linalg.norm(start[:8])))
    tau_period = find_return_time(up, start, tol=tol, components=range(8))
    return {"tau_period": tau_period,
            "t_half": float(result.t_of(tau_period / 2.0)),
            "t_full": float(result.t_of(tau_period))}


# ---------------------------------------------------------------------------
# Calogero-Moser
# ---------------------------------------------------------------------------

_SIGMA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def reduce_calogero(
    X0,
    V0,
    T: float,
    tol: float = 1e-6,
    config: Optional[IntegratorConfig] = None,
) -> dict:
    """Compare the eigenvalue flow of the free matrix motion X(t) = X0 + t V0
    with the two-body Calogero-Moser equations at the coupling read off the
    initial matrices.

    The conserved commutator M = [X, Xdot] determines the coupling through
    l = -Tr(M sigma)/2.  For l != 0, X(t) is never a multiple of the
    identity ([X(t), V0] = M != 0), so the eigenvalues never cross and
    ascending order labels them continuously; a gap below 1e-9 anywhere on
    the grid of _GRID_POINTS intervals is reported as a degeneracy.
    """
    X0 = np.asarray(X0, dtype=float)
    V0 = np.asarray(V0, dtype=float)
    for name, A in (("X0", X0), ("V0", V0)):
        if A.shape != (2, 2) or abs(A[0, 1] - A[1, 0]) > 1e-12:
            raise ValueError(f"{name} must be symmetric 2x2")
    T = float(T)
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"T must be finite and >= 0, got {T!r}")
    M = X0 @ V0 - V0 @ X0
    l = -0.5 * float(np.trace(M @ _SIGMA))

    q0, G = np.linalg.eigh(X0)
    if q0[1] - q0[0] < _CALOGERO_GAP:
        raise DegenerateStructureError(
            f"X0 eigenvalue gap {q0[1] - q0[0]:.3e} below {_CALOGERO_GAP:g}",
            state=X0,
        )
    qd0 = np.diag(G.T @ V0 @ G)

    grid = np.linspace(0.0, T, _GRID_POINTS + 1)
    Xt = X0 + grid[:, None, None] * V0
    m_drift = float(np.max(np.abs((Xt @ V0 - V0 @ Xt) - M)))
    eigs = np.linalg.eigh(Xt)[0]
    gap = eigs[:, 1] - eigs[:, 0]
    bad = np.flatnonzero(gap < _CALOGERO_GAP)
    if bad.size:
        i = bad[0]
        raise DegenerateStructureError(
            f"eigenvalue collision at t={grid[i]:.6g} (gap {gap[i]:.3e})",
            state=Xt[i],
        )

    system = calogero_moser_field(l)
    s0 = np.array([q0[0], q0[1], qd0[0], qd0[1]])
    if T > 0:
        traj = integrate(system, s0, T, config=config)
        q_path = traj.eval(grid)[:, :2]
    else:
        q_path = s0[None, :2]
    div = float(np.max(np.abs(q_path - eigs)))
    return {
        "l": l,
        "T": T,
        "n_grid": _GRID_POINTS,
        "max_divergence": div,
        "commutator_drift": m_drift,
        "tolerance": float(tol),
        "pass": bool(div <= tol),
        "initial_q": [float(v) for v in q0],
        "initial_qdot": [float(v) for v in qd0],
    }
