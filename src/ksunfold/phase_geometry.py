r"""Kustaanheimo-Stiefel geometry.

The KS map sends a point y of R^4 \ {0} to a point x of R^3 \ {0} and squares
the radius: |x| = |y|^2.  Component order throughout is (y1, y2, y3, y0) —
the "0" index sits in the fourth slot.  All functions broadcast over leading
axes, so y may be shaped (4,), (N, 4), etc.

Besides the map and its tangent lift this module provides the U(1) fiber
rotation, a two-chart section for lifting 3-D states onto the zero level of
the fiber momentum, and the chart change (y, u) -> (Y, U) = (y, 2R^2 u) to
oscillator coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, LiftError

__all__ = [
    "ks_project",
    "ks_tangent_velocity",
    "ks_tangent",
    "fiber_matrix",
    "fiber_act",
    "lift_frame",
    "ks_lift",
    "fiber_momentum",
    "to_oscillator_chart",
]


def ks_project(y):
    """KS projection of positions, y in R^4 -> x in R^3.

    x1 = 2(y1 y3 + y2 y0), x2 = 2(y2 y3 - y1 y0), x3 = y1^2 + y2^2 - y3^2 - y0^2,
    and |x| = |y|^2 exactly.  The result is a view of its component-major
    (3, ...) block.
    """
    y = np.asarray(y, dtype=float)
    y1, y2, y3, y0 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    x = np.empty((3,) + y.shape[:-1])
    x[0] = 2.0 * (y1 * y3 + y2 * y0)
    x[1] = 2.0 * (y2 * y3 - y1 * y0)
    x[2] = y1 * y1 + y2 * y2 - y3 * y3 - y0 * y0
    return _component_last(x)


def ks_tangent_velocity(y, u):
    """Velocity part of the tangent-lifted KS map (the chain rule applied to
    ks_project along u; note the factor 2 on all three components).  The
    result is a view of its component-major (3, ...) block."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    y1, y2, y3, y0 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    u1, u2, u3, u0 = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
    v = np.empty((3,) + np.broadcast(y1, u1).shape)
    v[0] = 2.0 * (y1 * u3 + y2 * u0 + y3 * u1 + y0 * u2)
    v[1] = 2.0 * (y3 * u2 + y2 * u3 - y1 * u0 - y0 * u1)
    v[2] = 2.0 * (y1 * u1 + y2 * u2 - y3 * u3 - y0 * u0)
    return _component_last(v)


def _component_last(block):
    """The (..., k) view of a component-major (k, ...) block: a column of
    the view is a contiguous row of the block."""
    return block.transpose((*range(1, block.ndim), 0))


def ks_tangent(y, u):
    """Full tangent map: (y, u) -> (x, v) with x = ks_project(y)."""
    return ks_project(y), ks_tangent_velocity(y, u)


def fiber_matrix(lam):
    """The fiber rotation S_lambda: a simultaneous rotation by lambda in the
    (y1, y2) and (y3, y0) planes.  Returns shape lam.shape + (4, 4)."""
    lam = np.asarray(lam, dtype=float)
    c, s = np.cos(lam), np.sin(lam)
    S = np.zeros(lam.shape + (4, 4))
    S[..., 0, 0] = c
    S[..., 0, 1] = -s
    S[..., 1, 0] = s
    S[..., 1, 1] = c
    S[..., 2, 2] = c
    S[..., 2, 3] = -s
    S[..., 3, 2] = s
    S[..., 3, 3] = c
    return S


def fiber_act(y, u, lam):
    """Apply the fiber rotation jointly to position and velocity.  Leaves
    ks_tangent invariant and preserves |y| and |u|."""
    S = fiber_matrix(lam)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    return (
        np.einsum("...ij,...j->...i", S, y),
        np.einsum("...ij,...j->...i", S, u),
    )


def lift_frame(y):
    """Orthogonal frame attached to y: a 4x4 matrix M(y) with M M^T = R^2 I
    whose first three rows are half the gradients of the KS components and
    whose fourth row is the fiber direction (the h = 0 gauge row):

        v = 2 M(y) u  extends ks_tangent_velocity by w = (fourth row).u,
        where h = 4 R^2 w is the fiber momentum.
    """
    y = np.asarray(y, dtype=float)
    y1, y2, y3, y0 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    M = np.empty(y.shape[:-1] + (4, 4))
    M[..., 0, :] = np.stack([y3, y0, y1, y2], axis=-1)
    M[..., 1, :] = np.stack([-y0, y3, y2, -y1], axis=-1)
    M[..., 2, :] = np.stack([y1, y2, -y3, -y0], axis=-1)
    M[..., 3, :] = np.stack([-y2, y1, -y0, y3], axis=-1)
    return M


def fiber_momentum(y, u):
    """Momentum h = 4 R^2 (y1 u2 - y2 u1 + y3 u0 - y0 u3) generating the
    fiber rotation; h = 0 cuts out the submanifold that reduces to Kepler."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    r2 = np.sum(y * y, axis=-1)
    w = (
        y[..., 0] * u[..., 1]
        - y[..., 1] * u[..., 0]
        + y[..., 2] * u[..., 3]
        - y[..., 3] * u[..., 2]
    )
    return 4.0 * r2 * w


# the single-state route of `ks_lift` lifts 1e-100 < |x| < 1e100 with every
# |v_i| < 1e100 only: there no square, product or quotient it forms
# overflows, and |x|^2 does not underflow
_SCALAR_R_MIN, _SCALAR_R_MAX = 1e-100, 1e100


def ks_lift(x, v, lam=0.0):
    """Section of the KS fibration: lift (x, v) to (y, u) with h = 0, then
    move along the fiber by lam.

    Two charts avoid the axis singularity: for x3 >= 0 the section has
    y2 = 0, for x3 < 0 it has y0 = 0 (whichever square-root denominator is
    larger).  The velocity solves the linear system v = 2 M(y) u together
    with the gauge row w = 0, i.e. u = M(y)^T (v1, v2, v3, 0) / (2 R^2).
    Round trip: ks_tangent(ks_lift(x, v, lam)) == (x, v) for any lam.

    One state, x and v of shape (3,), takes `_scalar_lift` unless it
    declines; batches, and the states it declines, take the array path,
    which is its test oracle.  A state whose lift is not finite (|x| = 0,
    or a value too large or not finite) raises LiftError naming it.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    lift = _scalar_lift(x, v) if x.shape == v.shape == (3,) else None
    y, u = _array_lift(x, v) if lift is None else lift
    if np.any(np.asarray(lam) != 0.0):
        y, u = fiber_act(y, u, lam)
    return y, u


def _array_lift(x, v):
    """`ks_lift` at lam = 0 on arrays of states."""
    # |x| = 0 or out of range makes a NaN or an inf, which the check below
    # reports
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = np.linalg.norm(x, axis=-1)
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]

        upper = x3 >= 0.0
        # chart A (x3 >= 0): y2 = 0
        a = np.sqrt(np.where(upper, (r + x3) / 2.0, 1.0))
        ya = np.stack([a, np.zeros_like(a), x1 / (2.0 * a), -x2 / (2.0 * a)],
                      axis=-1)
        # chart B (x3 < 0): y0 = 0
        b = np.sqrt(np.where(upper, 1.0, (r - x3) / 2.0))
        yb = np.stack([x1 / (2.0 * b), x2 / (2.0 * b), b, np.zeros_like(b)],
                      axis=-1)
        y = np.where(upper[..., None], ya, yb)

        vt = np.concatenate([v, np.zeros(v.shape[:-1] + (1,))], axis=-1)
        M = lift_frame(y)
        u = np.einsum("...ji,...j->...i", M, vt) / (2.0 * r[..., None])
    finite = np.isfinite(y).all(axis=-1) & np.isfinite(u).all(axis=-1)
    if not finite.all():
        xb, vb = np.broadcast_arrays(x, v)
        i = np.unravel_index(np.argmin(finite), finite.shape)
        raise LiftError(f"cannot lift x = {xb[i].tolist()}, "
                        f"v = {vb[i].tolist()}: its lift is not finite (|x| "
                        f"is 0, or a value is too large or not finite)",
                        state=(xb[i], vb[i]))
    return y, u


def _scalar_lift(x, v):
    """`_array_lift` of one state in Python floats: the array path's
    operations in its order, so every bit agrees (|x|^2 summed left to
    right, as np.add.reduce sums 3 terms, and u_i = sum_j M[j][i] vt[j]
    accumulated from 0.0, as einsum does).  None, for the array path to
    redo, unless _SCALAR_R_MIN < |x| < _SCALAR_R_MAX and every |v_i| is
    below _SCALAR_R_MAX."""
    x1, x2, x3 = x.tolist()
    v1, v2, v3 = v.tolist()
    r = math.sqrt((x1 * x1 + x2 * x2) + x3 * x3)
    if not (_SCALAR_R_MIN < r < _SCALAR_R_MAX and abs(v1) < _SCALAR_R_MAX
            and abs(v2) < _SCALAR_R_MAX and abs(v3) < _SCALAR_R_MAX):
        return None
    if x3 >= 0.0:  # chart A: y2 = 0
        a = math.sqrt((r + x3) / 2.0)
        y1, y2, y3, y0 = a, 0.0, x1 / (2.0 * a), -x2 / (2.0 * a)
    else:  # chart B: y0 = 0
        b = math.sqrt((r - x3) / 2.0)
        y1, y2, y3, y0 = x1 / (2.0 * b), x2 / (2.0 * b), b, 0.0
    # the columns of lift_frame(y) against (v1, v2, v3); the fourth term,
    # times vt[3] = 0, adds a zero to a sum that is never -0.0
    d = 2.0 * r
    u = [(((0.0 + y3 * v1) + -y0 * v2) + y1 * v3) / d,
         (((0.0 + y0 * v1) + y3 * v2) + y2 * v3) / d,
         (((0.0 + y1 * v1) + y2 * v2) + -y3 * v3) / d,
         (((0.0 + y2 * v1) + -y1 * v2) + -y0 * v3) / d]
    return np.array([y1, y2, y3, y0]), np.array(u)


def to_oscillator_chart(y, u):
    """Chart change to oscillator coordinates: Y = y, U = 2 |y|^2 u.  One
    state, y and u of shape (4,), takes Python floats (|y|^2 summed left to
    right, as np.add.reduce sums 4 terms) unless |y|^2 is 0 or U is not
    finite; the array path, its oracle, redoes those with its warnings."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.shape == u.shape == (4,):
        y1, y2, y3, y0 = y.tolist()
        d = 2.0 * (((y1 * y1 + y2 * y2) + y3 * y3) + y0 * y0)
        U = [d * c for c in u.tolist()]
        if d > 0.0 and all(map(math.isfinite, U)):
            return y.copy(), np.array(U)
    r2 = np.sum(y * y, axis=-1)
    if np.any(r2 <= 0.0):
        raise DomainError("oscillator chart requires |y| > 0", state=(y, u))
    return y.copy(), 2.0 * r2[..., None] * u
