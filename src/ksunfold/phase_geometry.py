r"""Kustaanheimo-Stiefel geometry.

The KS map sends a point y of R^4 \ {0} to a point x of R^3 \ {0} and squares
the radius: |x| = |y|^2.  Component order throughout is (y1, y2, y3, y0) —
the "0" index sits in the fourth slot.  All functions broadcast over leading
axes, so y may be shaped (4,), (N, 4), etc.

Besides the map and its tangent lift this module provides the U(1) fiber
rotation, a two-chart section for lifting 3-D states onto the zero level of
the fiber momentum, and the chart change (y, u) <-> (Y, U) = (y, 2R^2 u) to
oscillator coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LiftError

__all__ = [
    "State3",
    "State4",
    "ks_project",
    "ks_tangent_velocity",
    "ks_tangent",
    "fiber_matrix",
    "fiber_act",
    "lift_frame",
    "ks_lift",
    "fiber_momentum",
    "to_oscillator_chart",
    "from_oscillator_chart",
]


@dataclass(frozen=True)
class State3:
    """A point of the 3-D phase space: position x (|x| > 0) and velocity v."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.x.shape != (3,) or self.v.shape != (3,):
            raise ValueError("State3 components must be 3-vectors")
        if not np.linalg.norm(self.x) > 0.0:
            raise ValueError("State3 requires |x| > 0")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.x, self.v])


@dataclass(frozen=True)
class State4:
    """A point of the 4-D phase space: position y and velocity u, component
    order (1, 2, 3, 0).  R = |y| may vanish only for the completed
    oscillator field; conformal-Kepler evaluation requires R > 0."""

    y: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.y.shape != (4,) or self.u.shape != (4,):
            raise ValueError("State4 components must be 4-vectors")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.y, self.u])


def ks_project(y):
    """KS projection of positions, y in R^4 -> x in R^3.

    x1 = 2(y1 y3 + y2 y0), x2 = 2(y2 y3 - y1 y0), x3 = y1^2 + y2^2 - y3^2 - y0^2,
    and |x| = |y|^2 exactly.
    """
    y = np.asarray(y, dtype=float)
    y1, y2, y3, y0 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    x = np.empty(y.shape[:-1] + (3,))
    x[..., 0] = 2.0 * (y1 * y3 + y2 * y0)
    x[..., 1] = 2.0 * (y2 * y3 - y1 * y0)
    x[..., 2] = y1 * y1 + y2 * y2 - y3 * y3 - y0 * y0
    return x


def ks_tangent_velocity(y, u):
    """Velocity part of the tangent-lifted KS map (the chain rule applied to
    ks_project along u; note the factor 2 on all three components)."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    y1, y2, y3, y0 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    u1, u2, u3, u0 = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
    v = np.empty(np.broadcast(y1, u1).shape + (3,))
    v[..., 0] = 2.0 * (y1 * u3 + y2 * u0 + y3 * u1 + y0 * u2)
    v[..., 1] = 2.0 * (y3 * u2 + y2 * u3 - y1 * u0 - y0 * u1)
    v[..., 2] = 2.0 * (y1 * u1 + y2 * u2 - y3 * u3 - y0 * u0)
    return v


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


def ks_lift(x, v, lam=0.0):
    """Section of the KS fibration: lift (x, v) to (y, u) with h = 0, then
    move along the fiber by lam.

    Two charts avoid the axis singularity: for x3 >= 0 the section has
    y2 = 0, for x3 < 0 it has y0 = 0 (whichever square-root denominator is
    larger).  The velocity solves the linear system v = 2 M(y) u together
    with the gauge row w = 0, i.e. u = M(y)^T (v1, v2, v3, 0) / (2 R^2).
    Round trip: ks_tangent(ks_lift(x, v, lam)) == (x, v) for any lam.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    if np.any(r <= 0.0):
        raise LiftError("cannot lift a state with |x| = 0")
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]

    y = np.empty(x.shape[:-1] + (4,))
    upper = x3 >= 0.0
    # chart A (x3 >= 0): y2 = 0
    a = np.sqrt(np.where(upper, (r + x3) / 2.0, 1.0))
    ya = np.stack([a, np.zeros_like(a), x1 / (2.0 * a), -x2 / (2.0 * a)], axis=-1)
    # chart B (x3 < 0): y0 = 0
    b = np.sqrt(np.where(upper, 1.0, (r - x3) / 2.0))
    yb = np.stack([x1 / (2.0 * b), x2 / (2.0 * b), b, np.zeros_like(b)], axis=-1)
    y = np.where(upper[..., None], ya, yb)

    vt = np.concatenate([v, np.zeros(v.shape[:-1] + (1,))], axis=-1)
    M = lift_frame(y)
    u = np.einsum("...ji,...j->...i", M, vt) / (2.0 * r[..., None])

    if np.any(np.asarray(lam) != 0.0):
        y, u = fiber_act(y, u, lam)
    return y, u


def to_oscillator_chart(y, u):
    """Chart change to oscillator coordinates: Y = y, U = 2 |y|^2 u."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    r2 = np.sum(y * y, axis=-1)
    if np.any(r2 <= 0.0):
        raise DomainError("oscillator chart requires |y| > 0", state=(y, u))
    return y.copy(), 2.0 * r2[..., None] * u


def from_oscillator_chart(Y, U):
    """Inverse chart change: y = Y, u = U / (2 |Y|^2)."""
    Y = np.asarray(Y, dtype=float)
    U = np.asarray(U, dtype=float)
    r2 = np.sum(Y * Y, axis=-1)
    if np.any(r2 <= 0.0):
        raise DomainError("inverse chart requires |Y| > 0", state=(Y, U))
    return Y.copy(), U / (2.0 * r2[..., None])
