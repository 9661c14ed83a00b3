"""Adaptive Runge-Kutta integration with dense output.

The engine is a Dormand-Prince 5(4) embedded pair with the FSAL property
and a free quartic interpolant.  A step whose right-hand side evaluation
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
    "find_return_time",
    "write_table",
]

# Dormand-Prince 5(4) tableau
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

# most rows per block in `write_table`: bounds the encoder's working memory
_CSV_BLOCK = 512

# The `%.16e` encoder scales |v| by 10^k from a table of powers of ten,
# _POW10_MIN <= k <= _POW10_MAX, each correctly rounded to np.longdouble.
# The table entry and the product are each rounded once, by at most eps/2
# relative, so the scaled value s is within 2 eps s of the exact one.
_POW10_MIN, _POW10_MAX = -360, 360
_ROUND_EPS = 2.0 * float(np.finfo(np.longdouble).eps)
# exponent e of a value is stored at index e + _EXP_BIAS
_EXP_BIAS = 400
_ENCODER_TABLES = None  # built by `_encoder_tables` on first use

# iteration cap of `_safeguarded_newton`, and the largest last step,
# relative to max(1, |x|), of the roots it refines
_ROOT_MAX_ITER = 64
_ROOT_TOL = 1e-14


def brentq(*args, **kwargs):
    """SciPy's `brentq`, imported only when called; ksunfold never calls it.
    Bound here and in `reduction` only because the benchmark's tracer
    (bench/tracing.py) patches `brentq` on both modules by name; ROADMAP
    item 5 (a tracer that tolerates its absence) removes it."""
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


def _up_crossings(times, g, fdf):
    """Refined up-crossings of g, in order: for each node pair with
    g[i] < 0 <= g[i + 1], the root of `fdf` (as `_safeguarded_newton`
    takes it) in [times[i], times[i + 1]], started from the secant point."""
    for i in np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0)):
        g0, g1 = g[i], g[i + 1]
        lo, hi = times[i], times[i + 1]
        yield float(_safeguarded_newton(
            fdf, lo, hi, lo + (hi - lo) * (g0 / (g0 - g1)), _ROOT_TOL))


def write_table(path, header, table):
    """CSV of a float table: the header through `csv.writer`, then every
    value as `%.16e` (17 significant digits, as f"{v:.16e}"), CRLF line
    ends, encoded by `_encode_rows` in blocks of at most _CSV_BLOCK rows of
    nearly equal size."""
    table = np.asarray(table, dtype=float)
    n = len(table)
    blocks = -(-n // _CSV_BLOCK)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()  # the body goes to the byte stream under the text layer
        for i in range(blocks):
            fh.buffer.write(_encode_rows(
                table[i * n // blocks:(i + 1) * n // blocks]))


def _pow10_table():
    """10^k for _POW10_MIN <= k <= _POW10_MAX, each rounded to nearest at the
    precision of np.longdouble by the C library's decimal parser."""
    return np.array([np.longdouble(f"1e{k}")
                     for k in range(_POW10_MIN, _POW10_MAX + 1)])


def _encoder_tables():
    """(powers of ten, 4-digit words, exponent head and tail words) of
    `_encode_rows`, built once."""
    global _ENCODER_TABLES
    if _ENCODER_TABLES is None:
        quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
        e = np.arange(-_EXP_BIAS, _EXP_BIAS + 1)
        ae = np.abs(e)
        head = (ord("e") + np.where(e < 0, ord("-"), ord("+")) * 2 ** 8
                + np.where(ae >= 100, 48 + ae // 100, 0) * 2 ** 16
                + (48 + ae // 10 % 10) * 2 ** 24)
        _ENCODER_TABLES = (_pow10_table(),
                           (48 + quads).astype(np.uint8).view("<u4").ravel(),
                           head.astype("<u4"), (48 + ae % 10).astype("<u4"))
    return _ENCODER_TABLES


def _fallback_text(values):
    """`%.16e` of each value, NUL-padded to 25 bytes."""
    text = np.array(["%.16e" % v for v in values.tolist()], dtype="S25")
    return text.view(np.uint8).reshape(-1, 25)


def _encode_rows(block):
    """The CSV body of a (rows, cols) float block, as a uint8 array of the
    bytes that formatting every value with `"%.16e" %`, joined by "," with
    CRLF row ends, gives.

    For finite nonzero v with decimal exponent e, s = |v| 10^(16-e) lies in
    [1e16, 1e17) and is within 2 eps s of exact (_ROUND_EPS), so rounding s
    to the nearest integer D gives the 17 digits unless the fraction of s is
    within that bound of 1/2 (exact ties among them).  Those values and the
    non-finite ones take `_fallback_text`.  Zero has D = 0 and e = 0.
    """
    pow10, quads, exp_head, exp_tail = _encoder_tables()
    rows, cols = block.shape
    v = block.reshape(-1)
    finite = np.isfinite(v)
    zero = v == 0.0
    a = np.where(finite & ~zero, np.abs(v), 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    al = a.astype(np.longdouble)
    # where np.longdouble is a double, the bound exceeds 1/2 (or s
    # overflows) for every value, and every value falls back
    with np.errstate(over="ignore", invalid="ignore"):
        s = al * pow10[16 - _POW10_MIN - e]
        d = s.astype(np.uint64)
        # next to a power of ten log10 can miss e by one
        low, high = d < 10 ** 16, d >= 10 ** 17
        miss = np.flatnonzero(low | high)
        if miss.size:
            e += high
            e -= low
            s[miss] = al[miss] * pow10[16 - _POW10_MIN - e[miss]]
            d[miss] = s[miss].astype(np.uint64)
        frac = (s - d).astype(np.float64)
        exact = finite & (d >= 10 ** 16) & (
            np.abs(frac - 0.5) > _ROUND_EPS * s.astype(np.float64))
        d += frac > 0.5
        exact &= d <= 10 ** 17
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    d[zero] = 0
    e[zero] = 0
    hi = d // 10 ** 8
    lo = (d - hi * 10 ** 8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 10 ** 8
    hi -= lead * 10 ** 8
    # a value is 7 little-endian words (28 bytes), NUL bytes dropped:
    #   NUL sign D "." | DDDD | DDDD | DDDD | DDDD | "e" sign H T | U sep NUL
    # sign is "-" or NUL, H the exponent's hundreds digit or NUL, and sep
    # "," NUL after a row's inner values and CR LF after its last
    w = np.empty((7, v.size), dtype="<u4")
    np.multiply(np.signbit(v), np.uint32(ord("-") << 8), out=w[0])
    w[0] += (lead << 16) + np.uint32(0x2E300000)
    q = hi // 10 ** 4
    np.take(quads, q, out=w[1])
    np.take(quads, hi - q * 10 ** 4, out=w[2])
    q = lo // 10 ** 4
    np.take(quads, q, out=w[3])
    np.take(quads, lo - q * 10 ** 4, out=w[4])
    e += _EXP_BIAS
    np.take(exp_head, e, out=w[5])
    np.take(exp_tail, e, out=w[6])
    sep = np.full(cols, ord(",") << 8, dtype="<u4")
    sep[-1] = 0x0A0D00
    w[6].reshape(rows, cols)[:] += sep
    out = np.ascontiguousarray(w.T).view(np.uint8)
    bad = np.flatnonzero(~exact)
    if bad.size:
        out[bad, :25] = _fallback_text(v[bad])
    return out[out != 0]


def _require_finite_positive(name, value):
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10_000_000

    def __post_init__(self):
        _require_finite_positive("rel_tol", self.rel_tol)
        _require_finite_positive("abs_tol", self.abs_tol)
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

    def _locate(self, t):
        """For times t inside the span (to 1e-12), the index i of the step
        [times[i], times[i+1]] holding each, the position theta in [0, 1]
        inside it, and the step's length."""
        if self.dense is None:
            raise ValueError("trajectory has no dense output")
        t = np.asarray(t, dtype=float)
        nodes = self.times
        if np.any(t < nodes[0] - 1e-12) or np.any(t > nodes[-1] + 1e-12):
            raise ValueError("time outside trajectory span")
        idx = np.clip(np.searchsorted(nodes, t, side="right") - 1,
                      0, len(nodes) - 2)
        h = nodes[idx + 1] - nodes[idx]
        theta = np.clip((t - nodes[idx]) / h, 0.0, 1.0)
        return idx, theta, h

    def eval(self, t):
        """Dense-output states at times t (scalar or array) inside the span."""
        idx, theta, _ = self._locate(t)
        return self._value(idx, theta, self.dense[idx])

    def deriv(self, t):
        """Time derivative of the interpolant at times t inside the span."""
        idx, theta, h = self._locate(t)
        return _slope(theta, h, self.dense[idx])

    def eval_and_deriv(self, t):
        """(`eval(t)`, `deriv(t)`), locating t and indexing `dense` once."""
        idx, theta, h = self._locate(t)
        coeffs = self.dense[idx]
        return self._value(idx, theta, coeffs), _slope(theta, h, coeffs)

    def _value(self, idx, theta, coeffs):
        powers = np.stack([theta, theta**2, theta**3, theta**4], axis=-1)
        return self.states[idx] + np.einsum("...dm,...m->...d", coeffs, powers)

    def to_csv(self, path):
        """State and monitor columns at accepted steps, 17 significant digits."""
        names = self.state_names or tuple(
            f"s{i}" for i in range(self.states.shape[1])
        )
        write_table(path, ["t", *names, *self.monitors],
                    np.column_stack([self.times, self.states,
                                     *self.monitors.values()]))


def _slope(theta, h, coeffs):
    """d/dt of the quartic interpolants `coeffs` at theta, steps of length h."""
    dpow = np.stack([np.ones_like(theta), 2 * theta, 3 * theta**2,
                     4 * theta**3], axis=-1)
    return np.einsum("...dm,...m->...d", coeffs, dpow) / h[..., None]


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
    return min(100 * h0, h1, t_end), False


def _stats(nfev, rejected, retries) -> dict:
    return {"rhs_evals": nfev, "rejected_steps": rejected,
            "domain_retries": retries}


def _failure(message, t, y, stats, nonfinite=0) -> IntegrationError:
    counts = ", ".join(f"{k}={v}" for k, v in stats.items())
    note = (f"; rhs returned inf or NaN, or the error estimate overflowed, "
            f"on {nonfinite} rejected attempts" if nonfinite else "")
    return IntegrationError(f"{message} ({counts}){note}", t=t, state=y,
                            stats=stats)


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
    t0, t_end = float(t0), float(t_end)
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
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
    nfev = 2  # k0 and the step-size probe
    rejected = 0
    retries = int(probe_failed)
    ts = [t]
    ys = [y.copy()]
    dense = []
    K = np.empty((7, y.size))
    # each stage row with the view of K it combines; views stay current
    stages = [(row, K[:i]) for i, row in enumerate(_STAGES, 1)]
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    abs_y = np.abs(y)
    attempts = 0
    nonfinite = 0  # rejected attempts whose error norm was inf or NaN
    last_domain_error = None

    while t < t_end:
        attempts += 1
        if attempts > cfg.max_steps:
            raise _failure(f"step count exceeded max_steps={cfg.max_steps}",
                           t, y, _stats(nfev, rejected, retries), nonfinite)
        if h < _FLOOR_EPS * max(abs(t), 1.0):
            detail = (f": rhs domain error persisted ({last_domain_error})"
                      if last_domain_error is not None else "")
            raise _failure(
                f"step size {h:.3g} underflowed at t={t:.6g}{detail}",
                t, y, _stats(nfev, rejected, retries), nonfinite)
        clamped = t + h >= t_end
        h_step = t_end - t if clamped else h
        K[0] = k0
        try:
            for i, (row, Ki) in enumerate(stages, 1):
                y_new = y + h_step * row.dot(Ki)
                K[i] = f(y_new)
        except DomainError as exc:
            nfev += i
            retries += 1
            h = h_step / 2.0
            last_domain_error = exc
            continue
        nfev += 6
        abs_new = np.abs(y_new)
        scale = abs_tol + rel_tol * np.maximum(abs_y, abs_new)
        z = (h_step * _E.dot(K)) / scale
        err = math.sqrt(np.add.reduce(z * z) / z.size)
        if err <= 1.0:
            t_new = t_end if clamped else t + h_step
            dense.append(h_step * K.T.dot(_P))
            ts.append(t_new)
            ys.append(y_new)
            t, y, k0, abs_y = t_new, y_new, K[6].copy(), abs_new
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err**_ORDER_EXP
            )
            h = h_step * factor
        else:
            rejected += 1
            nonfinite += not math.isfinite(err)
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


def find_return_time(
    traj,
    reference,
    tol: float,
    components: Optional[Sequence[int]] = None,
) -> float:
    """First t > t0 at which the trajectory returns within `tol` of
    `reference` (optionally comparing only the listed state components).

    `traj` is a dense `Trajectory` or any flow with the same `times`,
    `states`, `eval`, `deriv` and `eval_and_deriv` (such as the closed-form
    unfold flow); each Newton iteration calls `eval_and_deriv` once.
    Detection: the trajectory must first leave a neighbourhood of the
    reference; afterwards, crossings of the hyperplane through the reference
    normal to the flow direction there are bracketed on the node grid
    and refined by `_safeguarded_newton` on the state and its derivative,
    from the secant point of the bracket.
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
        state, slope = traj.eval_and_deriv(t)  # one flow evaluation
        return (state[comp] - refc) @ w, slope[comp] @ w

    for t_star in _up_crossings(traj.times[start:], g_nodes[start:], fdf):
        if np.linalg.norm(traj.eval(t_star)[comp] - refc) < tol:
            return t_star
    raise ValueError("no return within the trajectory span")
