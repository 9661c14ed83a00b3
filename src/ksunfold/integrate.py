"""Adaptive Runge-Kutta integration with dense output.

The engine is a Dormand-Prince 5(4) embedded pair with the FSAL property
and a free quartic interpolant, plus a fixed-step classical RK4 kept as an
independent cross-check for tests.  A step whose right-hand side evaluation
lands in a forbidden region (DomainError) is retried at half the step before
the failure is surfaced with the offending time and state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, IntegrationError
from .systems import DynamicalSystem

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "integrate_fixed",
    "find_return_time",
    "write_table",
]

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.zeros((7, 7))
_A[1, 0] = 1 / 5
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4
# stage rows of the step loop: row i - 1 forms stage i from K[:i]; the last
# row is _B5[:6], which forms y_new (FSAL: its rhs is the next step's K[0])
_STAGES = tuple(_A[i, :i] for i in range(1, 6)) + (_B5[:6],)

# dense-output coefficients: y(t0 + theta*h) = y0 + h * K^T P (theta, ..., theta^4)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXP = -1.0 / 5.0
# a step below this times max(|t|, 1) has underflowed
_FLOOR_EPS = 16.0 * float(np.finfo(float).eps)

# rows per block in `write_table`: bounds the size of the formatted text
_CSV_BLOCK = 512

# iteration cap of `_safeguarded_newton`, and the tolerance in t of the
# return times it refines for `find_return_time`
_ROOT_MAX_ITER = 64
_RETURN_TOL = 1e-14


def brentq(*args, **kwargs):
    """SciPy's `brentq`, imported only when called; ksunfold never calls it.
    Bound here and in `reduction` only because the benchmark's tracer
    (bench/tracing.py) patches `brentq` on both modules by name; ROADMAP
    item 7 (a tracer that tolerates its absence) removes it."""
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(*args, **kwargs)


def _safeguarded_newton(fdf, lo, hi, x, tol):
    """Roots of increasing brackets, elementwise: f(lo) <= 0 <= f(hi).

    `fdf(x)` returns (f(x), f'(x)).  Each iteration shrinks the bracket to
    the sign of f at x, then takes the Newton step if it lands inside the
    bracket and bisects otherwise (f' = 0 included), on every element at
    once, until every last step is at most tol max(1, |x|) or after
    _ROOT_MAX_ITER iterations (Numerical Recipes' `rtsafe`)."""
    for _ in range(_ROOT_MAX_ITER):
        f, df = fdf(x)
        lo = np.where(f <= 0.0, x, lo)
        hi = np.where(f >= 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / df
        inside = (newton >= lo) & (newton <= hi)
        step = np.where(inside, newton, 0.5 * (lo + hi)) - x
        x = x + step
        if not np.any(np.abs(step) > tol * np.maximum(1.0, np.abs(x))):
            break
    return x


def write_table(path, header, table):
    """CSV of a float table: the header through `csv.writer`, then every
    value as `%.16e` (17 significant digits, as f"{v:.16e}"), CRLF line
    ends, formatted a block of rows at a time."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.16e"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(table), _CSV_BLOCK):
            block = table[lo:lo + _CSV_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _locate(nodes, x):
    """For each x, the index i of the interval [nodes[i], nodes[i+1]] of the
    nondecreasing array `nodes` holding it, the position theta in [0, 1]
    inside it, and its length (x beyond either end: first or last
    interval, theta clipped)."""
    idx = np.clip(np.searchsorted(nodes, x, side="right") - 1,
                  0, len(nodes) - 2)
    h = nodes[idx + 1] - nodes[idx]
    theta = np.clip((x - nodes[idx]) / h, 0.0, 1.0)
    return idx, theta, h


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    initial_step: Optional[float] = None
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Accepted times, states, monitor values, and per-step interpolants.

    `dense` holds h * K^T P per step, shape (n_steps, dim, 4), so the state
    inside step i is states[i] + dense[i] @ (theta, theta^2, theta^3, theta^4)
    with theta = (t - times[i]) / (times[i+1] - times[i]).

    `stats` holds the integrator's counts: `rhs_evals` (every right-hand
    side call, failed ones included), `rejected_steps` (error test failed)
    and `domain_retries` (a right-hand side raised DomainError and the step
    was shrunk).
    """

    times: np.ndarray
    states: np.ndarray
    monitors: dict = field(default_factory=dict)
    dense: Optional[np.ndarray] = None
    state_names: tuple = ()
    stats: dict = field(default_factory=dict)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def eval(self, t):
        """Dense-output states at times t (scalar or array) inside the span."""
        if self.dense is None:
            raise ValueError("trajectory has no dense output")
        t = np.asarray(t, dtype=float)
        if np.any(t < self.times[0] - 1e-12) or np.any(t > self.times[-1] + 1e-12):
            raise ValueError("time outside trajectory span")
        idx, theta, _ = _locate(self.times, t)
        powers = np.stack([theta, theta**2, theta**3, theta**4], axis=-1)
        return self.states[idx] + np.einsum("...dm,...m->...d",
                                            self.dense[idx], powers)

    def deriv(self, t):
        """Time derivative of the interpolant at times t."""
        if self.dense is None:
            raise ValueError("trajectory has no dense output")
        idx, theta, h = _locate(self.times, np.asarray(t, dtype=float))
        dpow = np.stack([np.ones_like(theta), 2 * theta, 3 * theta**2,
                         4 * theta**3], axis=-1)
        return np.einsum("...dm,...m->...d", self.dense[idx], dpow) / h[..., None]

    def to_csv(self, path):
        """State and monitor columns at accepted steps, 17 significant digits."""
        names = self.state_names or tuple(
            f"s{i}" for i in range(self.states.shape[1])
        )
        write_table(path, ["t", *names, *self.monitors],
                    np.column_stack([self.times, self.states,
                                     *self.monitors.values()]))


def _monitor_values(system, monitors, states):
    obs = system.monitors if monitors is None else tuple(monitors)
    out = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for o in obs:
            out[o.name] = np.asarray(o.fn(states), dtype=float)
    return out


def _initial_step(f, y0, f0, t_end, cfg):
    """Hairer-Norsett-Wanner starting-step heuristic, clipped to the span;
    returns the step and whether its rhs probe raised DomainError."""
    if cfg.initial_step is not None:
        return min(cfg.initial_step, t_end), False
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = f(y0 + h0 * f0)
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    except DomainError:
        return min(h0 * 1e-3, t_end), True
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end, cfg.max_step), False


def _stats(nfev, rejected, retries) -> dict:
    return {"rhs_evals": nfev, "rejected_steps": rejected,
            "domain_retries": retries}


def _failure(message, t, y, stats) -> IntegrationError:
    counts = ", ".join(f"{k}={v}" for k, v in stats.items())
    return IntegrationError(f"{message} ({counts})", t=t, state=y)


def integrate(
    system: DynamicalSystem,
    s0,
    t_end: float,
    config: Optional[IntegratorConfig] = None,
    monitors: Optional[Sequence] = None,
    t0: float = 0.0,
) -> Trajectory:
    """Integrate ds/dt = rhs(s) from t0 to t_end with the DP5(4) pair."""
    cfg = config or IntegratorConfig()
    t_end = float(t_end)
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    y = np.array(s0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"initial state must be finite, got {y}")
    f = system.rhs
    t = t0
    k0 = f(y)  # a bad initial state surfaces immediately

    h, probe_failed = _initial_step(f, y, k0, t_end - t0, cfg)
    nfev = 1 + (cfg.initial_step is None)
    rejected = 0
    retries = int(probe_failed)
    ts = [t]
    ys = [y.copy()]
    dense = []
    K = np.empty((7, y.size))
    attempts = 0
    last_domain_error = None

    while t < t_end:
        attempts += 1
        if attempts > cfg.max_steps:
            raise _failure(f"step count exceeded max_steps={cfg.max_steps}",
                           t, y, _stats(nfev, rejected, retries))
        if h < _FLOOR_EPS * max(abs(t), 1.0):
            detail = (f": rhs domain error persisted ({last_domain_error})"
                      if last_domain_error is not None else "")
            raise _failure(
                f"step size {h:.3g} underflowed at t={t:.6g}{detail}",
                t, y, _stats(nfev, rejected, retries))
        h_eff = min(h, cfg.max_step)
        clamped = t + h_eff >= t_end
        h_step = t_end - t if clamped else h_eff
        K[0] = k0
        try:
            for i, row in enumerate(_STAGES, 1):
                y_new = y + h_step * (row @ K[:i])
                K[i] = f(y_new)
        except DomainError as exc:
            nfev += i
            retries += 1
            h = h_step / 2.0
            last_domain_error = exc
            continue
        nfev += 6
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        z = (h_step * (_E @ K)) / scale
        err = math.sqrt(np.add.reduce(z * z) / z.size)
        if err <= 1.0:
            t_new = t_end if clamped else t + h_step
            dense.append(h_step * (K.T @ _P))
            ts.append(t_new)
            ys.append(y_new)
            t, y, k0 = t_new, y_new, K[6].copy()
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err**_ORDER_EXP
            )
            h = h_step * factor
        else:
            rejected += 1
            h = h_step * max(_MIN_FACTOR, _SAFETY * err**_ORDER_EXP)

    times = np.array(ts)
    states = np.array(ys)
    return Trajectory(
        times=times,
        states=states,
        monitors=_monitor_values(system, monitors, states),
        dense=np.array(dense),
        state_names=system.state_names,
        stats=_stats(nfev, rejected, retries),
    )


def integrate_fixed(
    system: DynamicalSystem,
    s0,
    t_end: float,
    n_steps: int,
    method: str = "rk4",
    t0: float = 0.0,
) -> Trajectory:
    """Fixed-step integration (classical RK4 or the DP5 propagator without
    step control); used as an order-verification and cross-check oracle."""
    y = np.array(s0, dtype=float).reshape(-1)
    f = system.rhs
    h = (float(t_end) - t0) / int(n_steps)
    ts = [t0]
    ys = [y.copy()]
    t = t0
    for _ in range(int(n_steps)):
        if method == "rk4":
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        elif method == "dp5":
            K = np.empty((6, y.size))
            K[0] = f(y)
            for i in range(1, 6):
                K[i] = f(y + h * (_A[i, :i] @ K[:i]))
            y = y + h * (_B5[:6] @ K)
        else:
            raise ValueError(f"unknown method {method!r}")
        t = t0 + (len(ts)) * h
        ts.append(t)
        ys.append(y.copy())
    states = np.array(ys)
    return Trajectory(
        times=np.array(ts),
        states=states,
        monitors=_monitor_values(system, None, states),
        dense=None,
        state_names=system.state_names,
    )


def find_return_time(
    traj,
    reference,
    tol: float,
    components: Optional[Sequence[int]] = None,
) -> float:
    """First t > t0 at which the trajectory returns within `tol` of
    `reference` (optionally comparing only the listed state components).

    `traj` is a dense `Trajectory` or any flow with the same `times`,
    `states`, `eval` and `deriv` (such as the closed-form unfold flow).
    Detection: the trajectory must first leave a neighbourhood of the
    reference; afterwards, crossings of the hyperplane through the reference
    normal to the flow direction there are bracketed on the node grid
    and refined by `_safeguarded_newton` on `eval` and `deriv`, from the
    secant point of the bracket.
    """
    ref = np.asarray(reference, dtype=float).reshape(-1)
    comp = np.arange(ref.size) if components is None else np.asarray(components)
    refc = ref[comp]

    # flow direction at the reference: interpolant derivative where the
    # trajectory is closest to it (the start, in every supported use)
    dist_nodes = np.linalg.norm(traj.states[:, comp] - refc, axis=1)
    w = traj.deriv(traj.times[int(np.argmin(dist_nodes))])[comp]
    wn = np.linalg.norm(w)
    if wn == 0.0:
        raise ValueError("flow direction vanishes at the reference")
    w = w / wn

    g_nodes = (traj.states[:, comp] - refc) @ w
    departed = dist_nodes > max(4.0 * tol, 0.25 * float(np.max(dist_nodes)))
    if not np.any(departed):
        raise ValueError("trajectory never leaves the reference neighbourhood")
    start = int(np.argmax(departed))

    def fdf(t):
        return ((traj.eval(t)[comp] - refc) @ w,
                traj.deriv(t)[comp] @ w)

    for i in range(start, len(traj.times) - 1):
        g0, g1 = g_nodes[i], g_nodes[i + 1]
        if g0 < 0.0 <= g1:
            lo, hi = traj.times[i], traj.times[i + 1]
            t_star = float(_safeguarded_newton(
                fdf, lo, hi, lo + (hi - lo) * (g0 / (g0 - g1)), _RETURN_TOL))
            if np.linalg.norm(traj.eval(t_star)[comp] - refc) < tol:
                return t_star
    raise ValueError("no return within the trajectory span")
