"""Reduction machinery: invariant submanifolds with compatible projections,
the flow-equivariance checker, and three end-to-end pipelines (radial
reduction of free motion, Calogero-Moser from a free matrix flow, and the
Kepler unfolding into the oscillator family).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import (
    DegenerateStructureError,
    DomainError,
    IntegrationError,
    KSUnfoldError,
)
from .flow import (
    OscillatorFlow,
    _columns,
    _invert_clocks,
    _sample,
    _squared_norm,
    _states,
)
from .integrate import (
    IntegratorConfig,
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
    calogero_moser_field,
    conformal_kepler_field,
    free3d_field,
    kepler_field,
    radial_reduced_field,
    scaling_preset,
)

__all__ = [
    "ReductionSetup",
    "radial_setup",
    "kepler_setup",
    "check_equivariance",
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

# gauges a sweep compares in one batch: the sweep size of the benchmark
# and the gallery
_SWEEP_BATCH = 8


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
    # states (Y, U); (n, 3) xs and vs, projected downstairs on first read,
    # or with the rest of its batch by a sweep.  The (n, k) ones are views
    # of component-major blocks.
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


def _flow(x0, v0, tau_end, gauges, scaling, k, n_samples):
    """The closed-form flows of the Kepler state (x0, v0) lifted at each of
    `gauges`, sampled in one block (`flow._sample`): each lift's chart
    state, its energy E at force constant k and g = scaling(E).  Returns
    the gauges as floats, their flows and that block; the first gauge that
    fails, in its lift or in the sampling, raises."""
    angles, flows = [], []
    for gauge in gauges:
        Y0, U0 = to_oscillator_chart(*ks_lift(x0, v0, gauge))
        E = float((0.5 * np.dot(U0, U0) - k) / np.dot(Y0, Y0))
        flows.append(OscillatorFlow._unsampled(
            Y0, U0, E, float(scaling(E)), float(tau_end), k, n_samples))
        angles.append(float(gauge))
    return angles, flows, _sample(flows)


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
    scaling = scaling or scaling_preset("unit")
    _, (flow,), _ = _flow(*_split_state(p0), tau_end, [gauge], scaling, k,
                          n_samples)
    return UnfoldResult(float(gauge), scaling.name, flow,
                        {"compared": False}, False,
                        config or IntegratorConfig())


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

    The gauges go in batches of _SWEEP_BATCH.  The flows of a batch are
    lifted and sampled together (`_flow`), compared together in one pass
    (`_compare_downstairs`) and projected downstairs together, and each
    result is then made, with its comparison and its rows of the
    projection, and yielded.  A batch that raises is redone one gauge at a
    time, through the same `_flow`: the gauges before the one that fails
    are yielded, with the bits they get in the batch, and that gauge
    raises.

    The direct leg does not depend on the gauge: it is integrated once,
    with the first gauge, over that gauge's physical-time span (cut short
    when that gauge's closed form meets a collision), and every gauge is
    compared against it on the grid up to the shorter of its own span and
    the leg's.  `config` sets the leg.
    """
    cfg = config or IntegratorConfig()
    scaling = scaling or scaling_preset("unit")
    x0, v0 = _split_state(p0)
    gauges = iter(gauges)
    leg = None
    for batch in iter(lambda: list(itertools.islice(gauges, _SWEEP_BATCH)),
                      []):
        try:
            lifted = [_flow(x0, v0, tau_end, batch, scaling, k, n_samples)]
        except (KSUnfoldError, ValueError):
            # what a lift, chart, scaling, start check or overflow raises
            if len(batch) == 1:
                raise
            lifted = (_flow(x0, v0, tau_end, [gauge], scaling, k, n_samples)
                      for gauge in batch)
        for angles, flows, block in lifted:
            if leg is None:
                leg = _direct_leg(x0, v0, float(flows[0].states[-1, 8]), k,
                                  cfg, flows[0].collision_time())
            divergences = _compare_downstairs(flows, leg)
            xs, vs = _downstairs(_component_last(block[:8]))
            for gauge, flow, divergence, x, v in zip(angles, flows,
                                                     divergences, xs, vs):
                result = UnfoldResult(gauge, scaling.name, flow, divergence,
                                      leg[2], cfg, leg[3])
                # its rows of the batch's projection, where `_projected`
                # would cache its own
                vars(result)["_projected"] = x, v
                yield result


def _direct_leg(x0, v0, t_total, k, cfg, t_collision=None):
    """Integrate Kepler directly over [0, t_total], or over 95% of
    t_collision when the closed form has located a collision; after any
    failure retry up to 95% of the time reached (0 for a start the field
    refuses, a DomainError).  Returns (trajectory or None, time reached,
    whether a collision cut the leg short, record).  The record holds
    where the horizon came from, the number of attempts, the counts of the
    integration the comparison uses and, when attempts failed, their
    summed counts (`failed_rhs_evals`, `failed_rejected_steps`,
    `failed_domain_retries`)."""
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
        return traj, t_cmp, collision, record
    return None, 0.0, True, record


def _compare_downstairs(flows, leg):
    """Measure the divergence of each flow, projected downstairs, from the
    direct leg on a physical-time grid it shares with the leg, all in one
    pass: the clocks are inverted, and the flows evaluated and projected
    downstairs, on one (G, _GRID_POINTS + 1) grid.  The leg is evaluated
    once per grid end."""
    direct, t_leg, collision, _ = leg
    if direct is None:
        return [{"compared": False, "collision": True, "t_compared": 0.0}
                for _ in flows]

    t_cmp = [min(float(flow.states[-1, 8]), t_leg) for flow in flows]
    grids = np.array([np.linspace(0.0, t, _GRID_POINTS + 1) for t in t_cmp])
    taus = _invert_clocks(flows, grids)
    xs, vs = _downstairs(_component_last(_states(_columns(flows), taus)))
    on_grid = {}
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
