"""Adaptive Runge-Kutta integration with dense output.

Every integration runs one embedded explicit pair: Dormand-Prince 8(5,3)
(Hairer, Norsett and Wanner, "Solving Ordinary Differential Equations I",
Sec. II.10, and their DOP853 code), 12 stages with FSAL (12 right-hand side
calls a step), the error of the 5th-order estimate corrected by the
3rd-order one, and a 7th-order interpolant.  With dense output (the
default) the interpolant costs 3 more calls per accepted step; with
`IntegratorConfig(dense_output=False)` those stages are not formed and the
trajectory carries its nodes alone.

The next step is the step tried times 0.8 err^(-1/8) (`_SAFETY`,
`_EXPONENT`), at most 10 times it after an accepted step and at least 0.2
times it after a rejected one (`_MAX_FACTOR`, `_MIN_FACTOR`): the
controller of Hairer, Norsett and Wanner, Sec. II.4, with the safety
factor 0.8 that they list next to 0.9.

The loop does a step's elementwise work in Python floats and keeps in
NumPy what fixes the bits: the BLAS dots (each stage's a . K) and the error
norm's dots.  An rhs with a fused stage kernel (`rhs.stage`, as the Kepler
field's has) forms each stage state y + h (a . K) and its rhs in one call,
in floats with the same roundings, and writes the rhs into its row of K
itself; any other rhs, and a stage the kernel declines, is called on the
array expression.  The accepted
steps' stage rows are kept, and the dense output is formed from them 256
steps at a time, in batched products that give each step's own bits.
Every trajectory is the one the array loop (kept in the tests as their
oracle) gives, bit for bit.

A step whose right-hand side evaluation lands in a forbidden region
(DomainError) is retried at half the step before the failure is surfaced
with the offending time and state.  A step whose new state is not finite
is rejected, and counted with the attempts whose error norm was inf or NaN.
A step below 16 eps max(|t|, min(1, t_end - t0)) has underflowed: relative
to the span when that is short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, IntegrationError
from .output import write_table
from .systems import DynamicalSystem, _positive_count

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "find_return_time",
]

# Dormand-Prince 8(5,3), copied from SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py (from Hairer's DOP853 code).
# Rows 1-11 form the stages, row 12 is the 8th-order solution (its rhs is
# the FSAL stage 12), rows 13-15 the dense-output stages.
_A8 = np.zeros((16, 16))
_A8[1, 0] = 5.26001519587677318785587544488e-2
_A8[2, [0, 1]] = [1.97250569845378994544595329183e-2,
    5.91751709536136983633785987549e-2]
_A8[3, [0, 2]] = [2.95875854768068491816892993775e-2,
    8.87627564304205475450678981324e-2]
_A8[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
    -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1]
_A8[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
    1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1]
_A8[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2]
_A8[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3]
_A8[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1]
_A8[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2]
_A8[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209, 1.09143734899672957818500254654,
    -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
    -3.0467644718982195003823669022]
_A8[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674, -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]
_A8[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2]
_A8[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2,
    2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
    -8.298e-3]
_A8[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2,
    2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2, -1.08347328697249322858509316994e-4,
    3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
    1.41312443674632500278074618366e-1]
_A8[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1,
    -4.69762141536116384314449447206, 7.68342119606259904184240953878,
    4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
    -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
    -9.15095847217987001081870187138]
# the 5th- and 3rd-order error estimates' weights of stages 0-12
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
_E3 = np.zeros(13)
_E3[:12] = _A8[12, :12]
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
# the interpolant's last four coefficient rows, from all 16 stages
_D8 = np.zeros((4, 16))
_D8[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]
# Row j holds the coefficients of theta, ..., theta^7 in theta^a (1 - theta)^b
# with a = (j + 2) // 2 and b = (j + 1) // 2, so that F^T _DOP853_POWERS is
# the DOP853 code's interpolant theta (F0 + (1 - theta) (F1 + theta (F2 +
# ...))) in the power basis
_DOP853_POWERS = np.array([
    [1, 0, 0, 0, 0, 0, 0],
    [1, -1, 0, 0, 0, 0, 0],
    [0, 1, -1, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0],
    [0, 0, 1, -3, 3, -1, 0],
    [0, 0, 0, 1, -3, 3, -1],
], dtype=float)

# row i - 1 of _STAGES forms stage i from K[:i]; its last row forms y_new,
# whose rhs is the next step's K[0] (FSAL).  _EXTRA forms the stages that
# only the dense output of an accepted step needs
_STAGES = tuple(_A8[i, :i] for i in range(1, 13))
_EXTRA = tuple(_A8[i, :i] for i in range(13, 16))

# The error estimate grows like h^8, so a step taken at factor s err^(-1/8)
# aims at an error of about s^8: 0.17 at s = 0.8, a 6x margin for the
# error to grow before the next attempt is rejected.  At 0.9 the aim is
# 0.43, a 2.3x margin that eccentric Kepler orbits overrun near
# pericentre, rejecting about a quarter of their attempts.
_SAFETY = 0.8
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0  # -1 / (q + 1) for the error estimate's order q = 7


def _error_norm(K13, h, scale):
    """The DOP853 code's norm: the 5th-order error estimate, scaled by
    |err5|^2 / sqrt(|err5|^2 + 0.01 |err3|^2) against the 3rd-order one,
    for K13 the attempt's stages 0-12 and `scale` a list of floats."""
    scale = np.array(scale)
    err5 = _E5.dot(K13) / scale
    err3 = _E3.dot(K13) / scale
    e5, e3 = float(err5.dot(err5)), float(err3.dot(err3))
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    # in Python floats where no operation below can overflow, divide by 0
    # or meet inf or NaN (h e5 / sqrt(den) <= sqrt(h * h e5) < 1.4e304);
    # elsewhere in NumPy's scalars, for their warnings
    num, den = h * e5, (e5 + 0.01 * e3) * scale.size
    if num < 1e300 and 1e-300 < den < 1e300:
        return num / math.sqrt(den)
    e5, e3 = np.float64(e5), np.float64(e3)
    return float(h * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size))


def _declines(y, h, d, row):
    """The stage kernel of an rhs without one: every stage state is formed
    in NumPy and passed to the rhs."""
    return None


def _dense(Ks, h, states):
    """Every accepted step's interpolant at once, from the steps' stage rows
    Ks (n, 16, dim), lengths h (n,) and the n + 1 states: coefficients of
    theta, ..., theta^7, shape (n, dim, 7), bit for bit what each step's own
    product gives."""
    dy = states[1:] - states[:-1]
    hk = h[:, None]
    F = np.empty((len(h), 7, dy.shape[1]))
    F[:, 0] = dy
    F[:, 1] = hk * Ks[:, 0] - dy
    F[:, 2] = 2.0 * dy - hk * (Ks[:, 12] + Ks[:, 0])
    F[:, 3:] = np.matmul(_D8, Ks)
    F[:, 3:] *= h[:, None, None]
    return np.matmul(F.transpose(0, 2, 1), _DOP853_POWERS)


# accepted steps per batch of dense output
_BLOCK = 256

# a step below this times max(|t|, min(1, t_end - t0)) has underflowed
_FLOOR_EPS = 16.0 * float(np.finfo(float).eps)

# iteration cap of `_safeguarded_newton`, and the largest last step,
# relative to max(1, |x|), of the roots it refines
_ROOT_MAX_ITER = 64
_ROOT_TOL = 1e-14


def brentq(*args, **kwargs):
    """SciPy's `brentq`, imported only when called; ksunfold never calls it,
    and it is no part of the stepper.  Bound here and in `reduction` only
    because the benchmark's tracer (bench/tracing.py) patches `brentq` on
    both modules by name; ROADMAP item 14 removes it."""
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(*args, **kwargs)


def _safeguarded_newton(fdf, lo, hi, x, tol):
    """Roots of increasing brackets, elementwise: f(lo) <= 0 <= f(hi).

    `fdf(x)` returns (f(x), f'(x)).  Each iteration shrinks the bracket to
    the sign of f at x, then takes the Newton step if it lands inside the
    bracket and bisects otherwise (f' = 0 included), on every element at
    once (Numerical Recipes' `rtsafe`).  An element has settled when its
    last step is at most tol max(1, |x|), or when it is back at the
    iterate before last: a 2-cycle at the rounding limit, where f is a few
    ulps either side of 0 and the step stays above tol.  Each row (the
    last axis; a 0-d or 1-D x is one row) stops once all its elements have
    settled, or after _ROOT_MAX_ITER iterations, and keeps its values
    while the other rows go on, so its roots are those of a call on that
    row alone."""
    before = math.nan  # the iterate before x; none yet
    running = np.ones(np.shape(x)[:-1], dtype=bool)  # rows of a 2-D x
    for _ in range(_ROOT_MAX_ITER):
        f, df = fdf(x)
        lo = np.where(f <= 0.0, x, lo)
        hi = np.where(f >= 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / df
        inside = (newton >= lo) & (newton <= hi)
        step = np.where(inside, newton, 0.5 * (lo + hi)) - x
        after = x + step
        moving = ((np.abs(step) > tol * np.maximum(1.0, np.abs(after)))
                  & (after != before))
        if np.ndim(x) < 2:
            if not moving.any():
                return after
        else:
            after = np.where(running[..., None], after, x)
            running &= moving.any(axis=-1)
            if not running.any():
                return after
        before, x = x, after
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


def _require_finite_positive(name, value):
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, the cap on step attempts, and whether to form the dense
    output.  False skips stages 13-15 of each accepted step and leaves
    `Trajectory.dense` None; the nodes are the same, unless one of those
    stages would have raised DomainError and halved the step.  A bad field
    raises ValueError naming it."""

    rel_tol: float = 1e-11
    abs_tol: float = 1e-12
    max_steps: int = 10_000_000
    dense_output: bool = True

    def __post_init__(self):
        _require_finite_positive("rel_tol", self.rel_tol)
        _require_finite_positive("abs_tol", self.abs_tol)
        _positive_count("max_steps", self.max_steps)
        if not isinstance(self.dense_output, bool):
            raise ValueError(
                f"dense_output must be a bool, got {self.dense_output!r}")


@dataclass(frozen=True)
class Trajectory:
    """Accepted times, states, monitor values, and per-step interpolants.

    `dense` holds each step's interpolant in the power basis, shape
    (n_steps, dim, m) with m = 7, so the state inside
    step i is states[i] + dense[i] @ (theta, theta^2, ..., theta^m) with
    theta = (t - times[i]) / (times[i+1] - times[i]).  It is None when the
    run had no dense output, and then `eval`, `deriv` and `eval_and_deriv`
    raise ValueError.

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
        powers = np.stack([theta**p for p in range(1, coeffs.shape[-1] + 1)],
                          axis=-1)
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
    """d/dt of the interpolants `coeffs` at theta, steps of length h."""
    dpow = np.stack([p * theta**(p - 1)
                     for p in range(1, coeffs.shape[-1] + 1)], axis=-1)
    return np.einsum("...dm,...m->...d", coeffs, dpow) / h[..., None]


def _monitor_values(system, monitors, states):
    obs = system.monitors if monitors is None else tuple(monitors)
    out = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for o in obs:
            out[o.name] = np.asarray(o.fn(states), dtype=float)
    return out


def _rms(z):
    """sqrt(mean(z^2)), with NumPy's bits and warnings, except where z is
    finite and its squares overflow: there m sqrt(mean((z / m)^2)) with
    m = max |z|, which does not."""
    if not np.isfinite(z).all():
        return np.sqrt(np.mean(z ** 2))
    with np.errstate(over="ignore"):
        rms = np.sqrt(np.mean(z ** 2))
    if rms < math.inf:
        return rms
    m = np.max(np.abs(z))
    return m * np.sqrt(np.mean((z / m) ** 2))


def _initial_step(f, y0, f0, t_end, cfg):
    """Hairer-Norsett-Wanner starting-step heuristic, clipped to the span;
    returns the step and whether its rhs probe raised DomainError."""
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = f(y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
    except DomainError:
        return min(h0 * 1e-3, t_end), True
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
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
    """Integrate ds/dt = rhs(s) from t0 to t_end with DOP853.

    Where the rhs has a fused stage kernel, `rhs.stage(y, h, d, row)` (as
    `kepler_field`'s does), each stage calls it with the step's base state
    y as a sequence of floats, the step h, the stage dot d = a . K as a
    buffer of dim floats, valid only during the call, and row, a writable
    byte view of the stage's row of K.  It packs the rhs of the stage
    state y + h d, formed with NumPy's roundings, into row and returns
    that state as a sequence of floats, or returns None, having written
    nothing, to decline.  A kernel declines every stage state that holds
    inf or NaN.  A declined stage state is formed in NumPy, with its
    warnings, and passed to the rhs.  Any other rhs is called on every
    array stage state, so a wrapper (a tracer, a counter) sees every call.
    The route is chosen once per call.  Each value is the one the array
    loop gives."""
    cfg = config or IntegratorConfig()
    t0, t_end = float(t0), float(t_end)
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    y0 = np.array(s0, dtype=float).reshape(-1)
    if y0.size != system.dim:
        raise ValueError(f"s0 has length {y0.size}, but the {system.name} "
                         f"system has dim {system.dim}")
    if not np.all(np.isfinite(y0)):
        raise ValueError(f"initial state must be finite, got {y0}")
    f = system.rhs
    k0 = f(y0)  # a bad initial state surfaces immediately

    # below a span of 1 the step floor is relative to the span; a first
    # step under it starts at it, where its first attempt would fail
    unit = min(1.0, t_end - t0)
    h, probe_failed = _initial_step(f, y0, k0, t_end - t0, cfg)
    h = max(float(h), _FLOOR_EPS * max(abs(t0), unit))
    # the route, once: the rhs's fused stage kernel, or one that declines
    kernel = getattr(f, "stage", _declines)
    nfev = 2  # k0 and the step-size probe
    rejected = 0
    retries = int(probe_failed)
    K = np.empty((1 + len(_STAGES) + len(_EXTRA), y0.size))
    K[0] = k0
    K13 = K[:13]  # the stages the error estimate combines
    # each stage's dot goes into dbuf, which the kernel reads through d
    dbuf = np.empty(y0.size)
    d = memoryview(dbuf)
    # each stage row with the view of K it combines and a byte view of
    # K's row i, which a kernel packs its rhs into; views stay current
    K_bytes, row_bytes = memoryview(K).cast("B"), 8 * y0.size
    stages = [(i, a, K[:i], K_bytes[i * row_bytes:(i + 1) * row_bytes])
              for i, a in enumerate(_STAGES + _EXTRA, 1)]
    dense_output = cfg.dense_output
    stages, extra = (stages[:len(_STAGES)],
                     stages[len(_STAGES):] if dense_output else [])
    # the accepted states, in an array that doubles when full, and the
    # stage rows and lengths of the last accepted steps, whose dense output
    # is formed when _BLOCK of them are in
    states = np.empty((64, y0.size))
    states[0] = y0
    n = 0  # accepted steps
    Ks = np.empty((_BLOCK,) + K.shape) if dense_output else None
    ts, hs, dense = [t0], [], []
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    t, y = t0, y0.tolist()
    abs_y = list(map(abs, y))
    attempts = 0
    nonfinite = 0  # rejected attempts whose error norm was inf or NaN
    last_domain_error = None

    while t < t_end:
        attempts += 1
        if attempts > cfg.max_steps:
            raise _failure(f"step count exceeded max_steps={cfg.max_steps}",
                           t, states[n].copy(),
                           _stats(nfev, rejected, retries), nonfinite)
        if h < _FLOOR_EPS * max(abs(t), unit):
            detail = (f": rhs domain error persisted ({last_domain_error})"
                      if last_domain_error is not None else "")
            raise _failure(
                f"step size {h:.3g} underflowed at t={t:.6g}{detail}",
                t, states[n].copy(), _stats(nfev, rejected, retries),
                nonfinite)
        clamped = t + h >= t_end
        h_step = t_end - t if clamped else h
        # K[i] is the attempt's i-th rhs call, so i counts them
        try:
            for i, a, Ki, row in stages:
                a.dot(Ki, out=dbuf)
                y_new = kernel(y, h_step, d, row)
                if y_new is None:  # formed in NumPy, with its warnings
                    y_new = states[n] + h_step * dbuf
                    K[i] = f(y_new)
            # the last stage state is the new state; one formed in NumPy
            # becomes floats
            if isinstance(y_new, np.ndarray):
                y_new = y_new.tolist()
            abs_new = list(map(abs, y_new))
            # the larger of each pair, NaN from abs_new kept (abs_y has
            # none: a NaN state is never accepted)
            err = _error_norm(K13, h_step, [
                abs_tol + rel_tol * (a if a >= b else b)
                for a, b in zip(abs_y, abs_new)])
            # an inf component's error scale is inf and its error 0: a new
            # state that overflowed is rejected as a non-finite attempt
            if err <= 1.0 and not (math.isfinite(sum(y_new))
                                   or all(map(math.isfinite, y_new))):
                err = math.inf
            if err <= 1.0:
                for i, a, Ki, row in extra:
                    a.dot(Ki, out=dbuf)
                    if kernel(y, h_step, d, row) is None:
                        K[i] = f(states[n] + h_step * dbuf)
        except DomainError as exc:
            nfev += i
            retries += 1
            h = h_step / 2.0
            last_domain_error = exc
            continue
        nfev += i
        if err <= 1.0:
            t_new = t_end if clamped else t + h_step
            if n + 1 == len(states):
                states = np.concatenate((states, np.empty_like(states)))
            n += 1
            states[n] = y_new
            ts.append(t_new)
            if dense_output:
                Ks[len(hs)] = K
                hs.append(h_step)
                if len(hs) == _BLOCK:
                    dense.append(_dense(Ks, np.array(hs),
                                        states[n - _BLOCK:n + 1]))
                    hs = []
            K[0] = K[len(stages)]
            t, y, abs_y = t_new, y_new, abs_new
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err**_EXPONENT
            )
            h = h_step * factor
        else:
            rejected += 1
            nonfinite += not math.isfinite(err)
            h = h_step * max(_MIN_FACTOR, _SAFETY * err**_EXPONENT)

    if hs:
        dense.append(_dense(Ks[:len(hs)], np.array(hs),
                            states[n - len(hs):n + 1]))
    states = states[:n + 1].copy()
    return Trajectory(
        times=np.array(ts),
        states=states,
        monitors=_monitor_values(system, monitors, states),
        dense=np.concatenate(dense) if dense_output else None,
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
    diff_nodes = traj.states[:, comp] - refc
    dist_nodes = np.linalg.norm(diff_nodes, axis=1)
    w = traj.deriv(traj.times[int(np.argmin(dist_nodes))])[comp]
    wn = np.linalg.norm(w)
    if wn == 0.0:
        raise ValueError("flow direction vanishes at the reference")
    w = w / wn

    g_nodes = diff_nodes @ w
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
