"""The oscillator family's flow upstairs, in closed form: the Stumpff
functions, the states and clock of G flows at once in Stiefel and
Scheifele's universal variables, the inversion of their clocks, and
`OscillatorFlow`, which samples one flow or a batch of them in one block.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import HorizonError
from .integrate import _ROOT_TOL, _safeguarded_newton, _up_crossings
from .phase_geometry import _component_last
from .systems import (
    OBSERVABLES,
    _chart_energy,
    _positive_count,
    oscillator_invariant,
)

__all__ = ["OscillatorFlow"]


# Stumpff series c_m(z) = sum_n (-z)^n / (2n + m)!, m = 2, 3, highest n first,
# as rows of (c2, c3) coefficients; used for |z| < 1, where the closed forms
# cancel (relative error < 1e-18)
_STUMPFF_ROWS = tuple((1.0 / math.factorial(2 * n + 2),
                       1.0 / math.factorial(2 * n + 3))
                      for n in reversed(range(9)))

# the single-tau route takes |z| below this: there w = sqrt|z| < 700, so
# cosh and sinh stay finite and no Stumpff denominator overflows
_SCALAR_Z_MAX = 700.0 ** 2

# a zero of Y . Y0 is a collision when |Y|^2 there is below this times
# |Y0|^2: zero up to rounding (about 1e-32), while a near-radial orbit's
# pericentre r = |Y|^2 is of order |x0 x v0|^2
_COLLISION_R2 = 1e-24


def _squared_norm(rows):
    """|Y|^2 from the components (Y1, Y2, Y3, Y0), summed left to right, as
    np.sum sums a length-4 axis."""
    Y1, Y2, Y3, Y0 = rows
    return ((Y1 * Y1 + Y2 * Y2) + Y3 * Y3) + Y0 * Y0


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


def _sample(flows):
    """Sample G flows that share tau_end and n_samples, each with its start
    checked (`_start`), at n_samples + 1 uniform nodes over [0, tau_end]:
    one `_states` call fills a (9, G, n_samples + 1) block, and flow i
    takes its row i as `states`.  Returns the block, or raises the
    HorizonError of the first flow whose samples overflow, the one that
    flow raises when built alone."""
    first = flows[0]
    times = np.linspace(0.0, float(first.tau_end), first.n_samples + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        block = _states(_columns(flows), times[None])
    if not np.isfinite(block).all():
        finite = np.isfinite(block).all(axis=0)
        n = int(np.argmin(finite.all(axis=1)))
        raise HorizonError(
            f"the closed-form flow overflows by tau = "
            f"{times[np.argmin(finite[n])]:.6g}; tau_end = "
            f"{flows[n].tau_end:.6g} is too long for this orbit")
    for i, flow in enumerate(flows):
        object.__setattr__(flow, "times", times)
        object.__setattr__(flow, "states", _component_last(block[:, i]))
    return block


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
    nodes over [0, tau_end].  The samples are stored component-major: a
    flow built alone owns a C-contiguous (9, n_samples + 1) block, and the
    flows of a gauge sweep's batch are the rows of one (9, G,
    n_samples + 1) block (`_sample`).  `states` is the (n_samples + 1, 9)
    view of the flow's rows, so each of its columns is contiguous either
    way; `eval` returns the same kind of view.  `monitors`, computed on
    first read, holds the oscillator invariant (== k), the gauge momentum h
    and the chart energy at force constant k there.  A span on which the
    closed form overflows raises HorizonError.
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
        self._start()
        _sample([self])

    @classmethod
    def _unsampled(cls, *args):
        """The flow of the constructor's positional arguments with its start
        checked and no samples yet, for `_sample` to sample in a batch."""
        flow = cls.__new__(cls)
        # `__match_args__` names the fields `__init__` takes, in its order
        for name, value in zip(cls.__match_args__, args):
            object.__setattr__(flow, name, value)
        flow._start()
        return flow

    def _start(self):
        """Check the start, the span and n_samples, and fix `_coeffs`."""
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
        _positive_count("n_samples", self.n_samples)

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
