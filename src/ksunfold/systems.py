"""Dynamical systems and named observables.

Every vector field used by the package is wrapped as a `DynamicalSystem`
(dimension tag, right-hand side, optional energy, default monitors), and
every conserved quantity as an `Observable` with a closed-form gradient.
State layout conventions:

    kepler / free3d : s = (x1, x2, x3, v1, v2, v3)
    conformal       : s = (y1, y2, y3, y0, u1, u2, u3, u0)
    oscillator      : s = (Y1, Y2, Y3, Y0, U1, U2, U3, U0)   [chart U = 2R^2 u]
    radial          : s = (r, vr)
    calogero        : s = (q1, q2, qd1, qd2)

All evaluators broadcast over leading axes: a batch of N states is an
(N, dim) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .phase_geometry import fiber_momentum

__all__ = [
    "Observable",
    "DynamicalSystem",
    "EnergyScaling",
    "scaling_preset",
    "kepler_field",
    "free3d_field",
    "conformal_kepler_field",
    "conformal_acceleration",
    "completed_oscillator_field",
    "reparametrized_field",
    "radial_reduced_field",
    "calogero_moser_field",
    "observable",
    "OBSERVABLES",
    "CONSERVED",
    "oscillator_invariant",
    "rescaled_runge_lenz",
    "scaled_observable",
    "K_J",
    "K_H",
    "S_KS",
]


@dataclass(frozen=True)
class Observable:
    """Named scalar function on a phase space with a closed-form gradient."""

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, s):
        return self.fn(np.asarray(s, dtype=float))

    def gradient(self, s):
        if self.grad is None:
            raise ValueError(f"observable {self.name!r} has no closed-form gradient")
        return self.grad(np.asarray(s, dtype=float))


@dataclass(frozen=True)
class DynamicalSystem:
    name: str
    dim: int
    rhs: Callable[[np.ndarray], np.ndarray]
    energy: Optional[Observable] = None
    monitors: tuple = ()
    state_names: tuple = ()


@dataclass(frozen=True)
class EnergyScaling:
    """Positive function g of the energy entering the reparametrization
    f = 2 g(E) R^2.  g must stay positive wherever it is evaluated."""

    name: str
    g: Callable[[np.ndarray], np.ndarray]

    def __call__(self, E):
        E = np.asarray(E, dtype=float)
        val = self.g(E)
        if np.any(np.asarray(val) <= 0.0):
            raise DomainError(
                f"energy scaling {self.name!r} is non-positive at E={E}", state=E
            )
        return val


def scaling_preset(name: str) -> EnergyScaling:
    if name == "unit":
        return EnergyScaling("unit", lambda E: np.ones_like(np.asarray(E, float)))
    if name == "gyorgyi":
        def _g(E):
            E = np.asarray(E, dtype=float)
            if np.any(E <= 0.0):
                raise DomainError("gyorgyi scaling requires E > 0", state=E)
            return 1.0 / E

        return EnergyScaling("gyorgyi", _g)
    raise KeyError(f"unknown scaling preset {name!r}")


# ---------------------------------------------------------------------------
# constant matrices for the bilinear/quadratic observables
# ---------------------------------------------------------------------------

def _antisym(pairs):
    K = np.zeros((4, 4))
    for a, b, val in pairs:
        K[a, b] = val
        K[b, a] = -val
    return K


def _sym(pairs):
    S = np.zeros((4, 4))
    for a, b, val in pairs:
        S[a, b] = val
        S[b, a] = val
    return S


# J_i = (1/2) Y^T K_i U ; index positions are (y1,y2,y3,y0) -> (0,1,2,3)
K_J = (
    _antisym([(0, 3, 1.0), (2, 1, 1.0)]),   # J1 = (Y1 U0 - Y0 U1 + Y3 U2 - Y2 U3)/2
    _antisym([(0, 2, 1.0), (1, 3, 1.0)]),   # J2 = (Y1 U3 - Y3 U1 + Y2 U0 - Y0 U2)/2
    _antisym([(0, 1, 1.0), (3, 2, 1.0)]),   # J3 = (Y1 U2 - Y2 U1 + Y0 U3 - Y3 U0)/2
)

# h = 2 Y^T K_H U
K_H = _antisym([(0, 1, 1.0), (2, 3, 1.0)])

# KS quadratic forms x_i(y) = y^T S_i y
S_KS = (
    _sym([(0, 2, 1.0), (1, 3, 1.0)]),       # x1 = 2(y1 y3 + y2 y0)
    _sym([(1, 2, 1.0), (0, 3, -1.0)]),      # x2 = 2(y2 y3 - y1 y0)
    np.diag([1.0, 1.0, -1.0, -1.0]),        # x3 = y1^2 + y2^2 - y3^2 - y0^2
)

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_j, _i, _k] = -1.0


# dtype of the states `kepler_field`'s rhs evaluates in Python floats
_F64 = np.dtype(np.float64)


def _split4(s):
    return s[..., :4], s[..., 4:8]


def _split3(s):
    return s[..., :3], s[..., 3:6]


def _r2(y):
    return np.sum(y * y, axis=-1)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def kepler_field(k: float = 1.0, r_min: float = 1e-12) -> DynamicalSystem:
    """Kepler: dx/dt = v, dv/dt = -k x / r^3.  Rejects r < r_min."""
    small_k = abs(k) <= 1e100

    def rhs(s):
        # One float64 state, as the step loop passes it, in Python floats
        # with NumPy's roundings: r's sum runs left to right, as
        # np.add.reduce does for three terms, sqrt is correctly rounded in
        # both, and r^3 is np.power's own (its SIMD loop differs from
        # math.pow and from r*r*r).  Only where nothing below can overflow
        # or become 0: with 1e-100 < r < 1e100, r^3 lies in (1e-300, 1e300)
        # and |k x_i / r^3| <= |k| / r^2 < 1e300 for |k| <= 1e100.  Every
        # other state (r < r_min, a NaN or infinite r, ...) takes the NumPy
        # expression, which raises or warns.
        if (type(s) is np.ndarray and s.dtype is _F64 and s.shape == (6,)
                and small_k):
            x0, x1, x2, v0, v1, v2 = s.tolist()
            r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
            if 1e-100 < r < 1e100 and r >= r_min:
                r3 = float(np.power(r, 3.0))
                return np.array((v0, v1, v2, -k * x0 / r3, -k * x1 / r3,
                                 -k * x2 / r3))
        s = np.asarray(s, dtype=float)
        x = s[..., :3]
        r = np.sqrt(np.add.reduce(x * x, axis=-1))  # np.linalg.norm's own body
        below = r < r_min
        # .any() goes through NumPy's Python-level _methods; one state
        # needs only the comparison
        if below.any() if s.ndim > 1 else below:
            raise DomainError(f"kepler rhs: r < r_min = {r_min:g}", state=s)
        acc = -k * x / r[..., None] ** 3
        return np.concatenate((s[..., 3:6], acc), axis=-1)

    energy = _kepler_energy(k)
    mon = tuple(
        OBSERVABLES[n] for n in ("kepler_energy", "L1", "L2", "L3", "A1", "A2", "A3")
    ) if k == 1.0 else (energy,)
    return DynamicalSystem(
        name="kepler",
        dim=6,
        rhs=rhs,
        energy=energy,
        monitors=mon,
        state_names=("x1", "x2", "x3", "v1", "v2", "v3"),
    )


def free3d_field() -> DynamicalSystem:
    """Free particle in 3-D: dx/dt = v, dv/dt = 0."""

    def rhs(s):
        s = np.asarray(s, dtype=float)
        x, v = _split3(s)
        return np.concatenate([v, np.zeros_like(x)], axis=-1)

    energy = Observable(
        "free_energy",
        6,
        fn=lambda s: 0.5 * np.sum(s[..., 3:6] ** 2, axis=-1),
        grad=lambda s: np.concatenate(
            [np.zeros_like(s[..., :3]), s[..., 3:6]], axis=-1
        ),
    )
    return DynamicalSystem(
        name="free3d",
        dim=6,
        rhs=rhs,
        energy=energy,
        monitors=(energy,),
        state_names=("x1", "x2", "x3", "v1", "v2", "v3"),
    )


def conformal_acceleration(y, u, k=1.0):
    """du/dt for the conformal Kepler field, raw form:
    F = (|u|^2/R^2) y - (k/(2 R^6)) y - 2 ((u.y)/R^2) u."""
    r2 = _r2(y)
    u2 = np.sum(u * u, axis=-1)
    uy = np.sum(u * y, axis=-1)
    return (
        (u2 / r2 - k / (2.0 * r2**3))[..., None] * y
        - 2.0 * (uy / r2)[..., None] * u
    )


def conformal_kepler_field(k: float = 1.0, R_min: float = 1e-9) -> DynamicalSystem:
    """Conformal Kepler on (y, u): dy/dt = u, du/dt = F.  Rejects R < R_min."""

    def rhs(s):
        s = np.asarray(s, dtype=float)
        y, u = _split4(s)
        R = np.linalg.norm(y, axis=-1)
        if np.any(R < R_min):
            raise DomainError(f"conformal rhs: R < R_min = {R_min:g}", state=s)
        return np.concatenate([u, conformal_acceleration(y, u, k)], axis=-1)

    energy = _conformal_energy(k)
    mon = tuple(
        OBSERVABLES[n]
        for n in ("conformal_energy", "h_yu", "J1_yu", "J2_yu", "J3_yu")
    ) if k == 1.0 else (energy,)
    return DynamicalSystem(
        name="conformal",
        dim=8,
        rhs=rhs,
        energy=energy,
        monitors=mon,
        state_names=("y1", "y2", "y3", "y0", "u1", "u2", "u3", "u0"),
    )


def completed_oscillator_field(E: float, k: float = 1.0) -> DynamicalSystem:
    """The completed linear field on (Y, U): dY/dtau = U, dU/dtau = 2E Y.

    Defined on all of R^8 (including Y = 0) and complete for every E; this is
    the energy-E member of the oscillator family the Kepler flow unfolds
    into (frequency sqrt(-2E) for E < 0).
    """
    E = float(E)

    def rhs(s):
        s = np.asarray(s, dtype=float)
        Y, U = _split4(s)
        return np.concatenate([U, 2.0 * E * Y], axis=-1)

    inv = oscillator_invariant(E)
    mon = (inv, OBSERVABLES["chart_energy"], OBSERVABLES["h"]) if k == 1.0 else (inv,)
    return DynamicalSystem(
        name="oscillator",
        dim=8,
        rhs=rhs,
        energy=inv,
        monitors=mon,
        state_names=("Y1", "Y2", "Y3", "Y0", "U1", "U2", "U3", "U0"),
    )


def reparametrized_field(
    scaling: EnergyScaling | None = None, k: float = 1.0
) -> DynamicalSystem:
    """Reparametrized field in the oscillator chart with the energy read off
    the state: dY/dtau = U, dU/dtau = 2 g(E) E Y, E = (|U|^2/2 - k)/|Y|^2.

    With g == 1 this is exactly the chart transport of 2 R^2 times the
    conformal Kepler field.
    """
    if scaling is None:
        scaling = scaling_preset("unit")

    def rhs(s):
        s = np.asarray(s, dtype=float)
        Y, U = _split4(s)
        r2 = _r2(Y)
        if np.any(r2 <= 0.0):
            raise DomainError("reparametrized rhs needs |Y| > 0", state=s)
        E = (0.5 * np.sum(U * U, axis=-1) - k) / r2
        return np.concatenate([U, (2.0 * scaling(E) * E)[..., None] * Y], axis=-1)

    return DynamicalSystem(
        name=f"reparametrized[{scaling.name}]",
        dim=8,
        rhs=rhs,
        energy=OBSERVABLES["chart_energy"] if k == 1.0 else _chart_energy(k),
        monitors=(OBSERVABLES["chart_energy"], OBSERVABLES["h"]) if k == 1.0 else (),
        state_names=("Y1", "Y2", "Y3", "Y0", "U1", "U2", "U3", "U0"),
    )


def radial_reduced_field(
    E: float | None = None, l: float | None = None, variant: str = "energy"
) -> DynamicalSystem:
    """Radial equation on (r, vr).

    variant="energy":  r'' = 2E/r - vr^2/r   (fixed-energy reduction)
    variant="angular": r'' = l^2/r^3         (fixed angular momentum)
    """
    if variant == "energy":
        if E is None:
            raise ValueError("energy variant needs E")
        E = float(E)

        def rhs(s):
            s = np.asarray(s, dtype=float)
            r, vr = s[..., 0], s[..., 1]
            if np.any(r <= 0.0):
                raise DomainError("radial rhs needs r > 0", state=s)
            return np.stack([vr, (2.0 * E - vr * vr) / r], axis=-1)

        # l^2 = r^2 (2E - vr^2) is the conserved quantity of this variant
        cons = Observable(
            "radial_l2",
            2,
            fn=lambda s: s[..., 0] ** 2 * (2.0 * E - s[..., 1] ** 2),
            grad=lambda s: np.stack(
                [2.0 * s[..., 0] * (2.0 * E - s[..., 1] ** 2),
                 -2.0 * s[..., 0] ** 2 * s[..., 1]],
                axis=-1,
            ),
        )
        return DynamicalSystem(
            "radial", 2, rhs, energy=cons, monitors=(cons,), state_names=("r", "vr")
        )

    if variant == "angular":
        if l is None:
            raise ValueError("angular variant needs l")
        l = float(l)

        def rhs(s):
            s = np.asarray(s, dtype=float)
            r, vr = s[..., 0], s[..., 1]
            if np.any(r <= 0.0):
                raise DomainError("radial rhs needs r > 0", state=s)
            return np.stack([vr, l * l / r**3], axis=-1)

        energy = Observable(
            "radial_energy",
            2,
            fn=lambda s: 0.5 * s[..., 1] ** 2 + 0.5 * l * l / s[..., 0] ** 2,
            grad=lambda s: np.stack(
                [-l * l / s[..., 0] ** 3, s[..., 1]], axis=-1
            ),
        )
        return DynamicalSystem(
            "radial", 2, rhs, energy=energy, monitors=(energy,),
            state_names=("r", "vr"),
        )

    raise ValueError(f"unknown radial variant {variant!r}")


def calogero_moser_field(l: float, gap_min: float = 1e-9) -> DynamicalSystem:
    """Two-body rational Calogero-Moser system on (q1, q2, qd1, qd2):
    q1'' = -2 l^2/(q2-q1)^3, q2'' = +2 l^2/(q2-q1)^3."""
    l = float(l)

    def rhs(s):
        s = np.asarray(s, dtype=float)
        q1, q2, qd1, qd2 = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
        gap = q2 - q1
        if np.any(np.abs(gap) < gap_min):
            raise DomainError(
                f"calogero rhs: |q2 - q1| < {gap_min:g}", state=s
            )
        a = 2.0 * l * l / gap**3
        return np.stack([qd1, qd2, -a, a], axis=-1)

    energy = Observable(
        "calogero_energy",
        4,
        fn=lambda s: 0.5 * (s[..., 2] ** 2 + s[..., 3] ** 2)
        + l * l / (s[..., 1] - s[..., 0]) ** 2,
        grad=lambda s: np.stack(
            [
                2.0 * l * l / (s[..., 1] - s[..., 0]) ** 3,
                -2.0 * l * l / (s[..., 1] - s[..., 0]) ** 3,
                s[..., 2],
                s[..., 3],
            ],
            axis=-1,
        ),
    )
    return DynamicalSystem(
        "calogero", 4, rhs, energy=energy, monitors=(energy,),
        state_names=("q1", "q2", "qd1", "qd2"),
    )


# ---------------------------------------------------------------------------
# observables: Kepler side
# ---------------------------------------------------------------------------

def _kepler_energy(k=1.0):
    def fn(s):
        x, v = _split3(s)
        return 0.5 * np.sum(v * v, axis=-1) - k / np.linalg.norm(x, axis=-1)

    def grad(s):
        x, v = _split3(s)
        r = np.linalg.norm(x, axis=-1)
        return np.concatenate([k * x / r[..., None] ** 3, v], axis=-1)

    return Observable("kepler_energy", 6, fn, grad)


def _angular_momentum(i):
    e = np.zeros(3)
    e[i] = 1.0

    def fn(s):
        x, v = _split3(s)
        return np.cross(x, v)[..., i]

    def grad(s):
        x, v = _split3(s)
        return np.concatenate(
            [np.cross(v, np.broadcast_to(e, v.shape)),
             np.cross(np.broadcast_to(e, x.shape), x)],
            axis=-1,
        )

    return Observable(f"L{i + 1}", 6, fn, grad)


def _runge_lenz(i, k=1.0):
    """A = x/r - v x L = (1/r - |v|^2) x + (x.v) v  (conserved for force -k x/r^3
    with k = 1; general k: A = k x/r - v x L)."""

    def fn(s):
        x, v = _split3(s)
        r = np.linalg.norm(x, axis=-1)
        xv = np.sum(x * v, axis=-1)
        v2 = np.sum(v * v, axis=-1)
        return (k / r - v2) * x[..., i] + xv * v[..., i]

    def grad(s):
        x, v = _split3(s)
        r = np.linalg.norm(x, axis=-1)
        xv = np.sum(x * v, axis=-1)
        v2 = np.sum(v * v, axis=-1)
        gx = (
            -k * (x[..., i] / r**3)[..., None] * x
            + v[..., i][..., None] * v
        )
        gx[..., i] += k / r - v2
        gv = -2.0 * x[..., i][..., None] * v + v[..., i][..., None] * x
        gv[..., i] += xv
        return np.concatenate([gx, gv], axis=-1)

    return Observable(f"A{i + 1}", 6, fn, grad)


# ---------------------------------------------------------------------------
# observables: conformal side, natural coordinates (y, u)
# ---------------------------------------------------------------------------

def _conformal_energy(k=1.0):
    def fn(s):
        y, u = _split4(s)
        r2 = _r2(y)
        return 2.0 * r2 * np.sum(u * u, axis=-1) - k / r2

    def grad(s):
        y, u = _split4(s)
        r2 = _r2(y)
        u2 = np.sum(u * u, axis=-1)
        gy = (4.0 * u2 + 2.0 * k / r2**2)[..., None] * y
        gu = 4.0 * r2[..., None] * u
        return np.concatenate([gy, gu], axis=-1)

    return Observable("conformal_energy", 8, fn, grad)


def _h_yu():
    def fn(s):
        y, u = _split4(s)
        return fiber_momentum(y, u)

    def grad(s):
        y, u = _split4(s)
        r2 = _r2(y)
        w = np.einsum("...i,ij,...j->...", y, K_H, u)
        gy = 8.0 * w[..., None] * y + 4.0 * r2[..., None] * (u @ K_H.T)
        gu = -4.0 * r2[..., None] * (y @ K_H.T)
        return np.concatenate([gy, gu], axis=-1)

    return Observable("h_yu", 8, fn, grad)


def _J_yu(i):
    K = K_J[i]

    def fn(s):
        y, u = _split4(s)
        return _r2(y) * np.einsum("...i,ij,...j->...", y, K, u)

    def grad(s):
        y, u = _split4(s)
        r2 = _r2(y)
        w = np.einsum("...i,ij,...j->...", y, K, u)
        gy = 2.0 * w[..., None] * y + r2[..., None] * (u @ K.T)
        gu = -r2[..., None] * (y @ K.T)
        return np.concatenate([gy, gu], axis=-1)

    return Observable(f"J{i + 1}_yu", 8, fn, grad)


def _Q_yu(i, k=1.0):
    S = S_KS[i]

    def _parts(s):
        y, u = _split4(s)
        r2 = _r2(y)
        xy = np.einsum("...i,ij,...j->...", y, S, y)
        xu = np.einsum("...i,ij,...j->...", u, S, u)
        E = 2.0 * r2 * np.sum(u * u, axis=-1) - k / r2
        return y, u, r2, xy, xu, E

    def fn(s):
        _, _, r2, xy, xu, E = _parts(s)
        return r2**2 * xu - 0.5 * E * xy

    def grad(s):
        y, u, r2, xy, xu, E = _parts(s)
        u2 = np.sum(u * u, axis=-1)
        gEy = (4.0 * u2 + 2.0 * k / r2**2)[..., None] * y
        gEu = 4.0 * r2[..., None] * u
        gy = (
            4.0 * (r2 * xu)[..., None] * y
            - 0.5 * xy[..., None] * gEy
            - E[..., None] * (y @ S.T)
        )
        gu = 2.0 * (r2**2)[..., None] * (u @ S.T) - 0.5 * xy[..., None] * gEu
        return np.concatenate([gy, gu], axis=-1)

    return Observable(f"Q{i + 1}_yu", 8, fn, grad)


# ---------------------------------------------------------------------------
# observables: oscillator chart (Y, U)
# ---------------------------------------------------------------------------

def _chart_energy(k=1.0):
    """The conformal energy expressed through the chart:
    E = (|U|^2/2 - k)/R^2 with R^2 = |Y|^2."""

    def fn(s):
        Y, U = _split4(s)
        return (0.5 * np.sum(U * U, axis=-1) - k) / _r2(Y)

    def grad(s):
        Y, U = _split4(s)
        r2 = _r2(Y)
        gY = ((2.0 * k - np.sum(U * U, axis=-1)) / r2**2)[..., None] * Y
        gU = U / r2[..., None]
        return np.concatenate([gY, gU], axis=-1)

    return Observable("chart_energy", 8, fn, grad)


def _h_chart():
    def fn(s):
        Y, U = _split4(s)
        return 2.0 * np.einsum("...i,ij,...j->...", Y, K_H, U)

    def grad(s):
        Y, U = _split4(s)
        return np.concatenate([2.0 * (U @ K_H.T), -2.0 * (Y @ K_H.T)], axis=-1)

    return Observable("h", 8, fn, grad)


def _J_chart(i):
    K = K_J[i]

    def fn(s):
        Y, U = _split4(s)
        return 0.5 * np.einsum("...i,ij,...j->...", Y, K, U)

    def grad(s):
        Y, U = _split4(s)
        return np.concatenate([0.5 * (U @ K.T), -0.5 * (Y @ K.T)], axis=-1)

    return Observable(f"J{i + 1}", 8, fn, grad)


def _Q_chart(i, k=1.0):
    """Q_i = (1/4)[x_i(U) - 2E x_i(Y)] with the energy read off the state;
    polynomial in (Y, U, E) and defined for either energy sign."""
    S = S_KS[i]

    def fn(s):
        Y, U = _split4(s)
        E = (0.5 * np.sum(U * U, axis=-1) - k) / _r2(Y)
        xY = np.einsum("...i,ij,...j->...", Y, S, Y)
        xU = np.einsum("...i,ij,...j->...", U, S, U)
        return 0.25 * xU - 0.5 * E * xY

    def grad(s):
        Y, U = _split4(s)
        r2 = _r2(Y)
        U2 = np.sum(U * U, axis=-1)
        E = (0.5 * U2 - k) / r2
        xY = np.einsum("...i,ij,...j->...", Y, S, Y)
        gEY = ((2.0 * k - U2) / r2**2)[..., None] * Y
        gEU = U / r2[..., None]
        gY = -0.5 * xY[..., None] * gEY - E[..., None] * (Y @ S.T)
        gU = 0.5 * (U @ S.T) - 0.5 * xY[..., None] * gEU
        return np.concatenate([gY, gU], axis=-1)

    return Observable(f"Q{i + 1}", 8, fn, grad)


def _L_ab(a, b):
    names = ("1", "2", "3", "0")

    def fn(s):
        Y, U = _split4(s)
        return 0.5 * (Y[..., a] * U[..., b] - Y[..., b] * U[..., a])

    def grad(s):
        Y, U = _split4(s)
        gY = np.zeros_like(Y)
        gU = np.zeros_like(U)
        gY[..., a] += 0.5 * U[..., b]
        gY[..., b] -= 0.5 * U[..., a]
        gU[..., b] += 0.5 * Y[..., a]
        gU[..., a] -= 0.5 * Y[..., b]
        return np.concatenate([gY, gU], axis=-1)

    return Observable(f"L_{names[a]}{names[b]}", 8, fn, grad)


def _Q_ab(a, b, k=1.0):
    names = ("1", "2", "3", "0")

    def fn(s):
        Y, U = _split4(s)
        E = (0.5 * np.sum(U * U, axis=-1) - k) / _r2(Y)
        return 0.5 * (U[..., a] * U[..., b] - 2.0 * E * Y[..., a] * Y[..., b])

    def grad(s):
        Y, U = _split4(s)
        r2 = _r2(Y)
        U2 = np.sum(U * U, axis=-1)
        E = (0.5 * U2 - k) / r2
        gEY = ((2.0 * k - U2) / r2**2)[..., None] * Y
        gEU = U / r2[..., None]
        YaYb = Y[..., a] * Y[..., b]
        gY = -YaYb[..., None] * gEY
        gY[..., a] -= E * Y[..., b]
        gY[..., b] -= E * Y[..., a]
        gU = -YaYb[..., None] * gEU
        gU[..., a] += 0.5 * U[..., b]
        gU[..., b] += 0.5 * U[..., a]
        return np.concatenate([gY, gU], axis=-1)

    return Observable(f"Q_{names[a]}{names[b]}", 8, fn, grad)


def oscillator_invariant(E: float, k: float = 1.0) -> Observable:
    """C = |U|^2/2 - E |Y|^2, the conserved quadratic of the completed field
    at energy E.  On states compatible with the conformal system C == k, and
    unlike the chart energy it stays regular through Y = 0."""
    E = float(E)

    def fn(s):
        Y, U = _split4(s)
        return 0.5 * np.sum(U * U, axis=-1) - E * _r2(Y)

    def grad(s):
        Y, U = _split4(s)
        return np.concatenate([-2.0 * E * Y, U], axis=-1)

    return Observable("oscillator_invariant", 8, fn, grad)


def scaled_observable(name: str, obs: Observable, factor: Observable) -> Observable:
    """Product observable factor*obs with the chain-rule gradient."""

    def fn(s):
        return factor.fn(np.asarray(s, float)) * obs.fn(np.asarray(s, float))

    def grad(s):
        s = np.asarray(s, float)
        return (
            factor.fn(s)[..., None] * obs.grad(s)
            + obs.fn(s)[..., None] * factor.grad(s)
        )

    return Observable(name, obs.dim, fn, grad)


def rescaled_runge_lenz(i: int, sign: int, k: float = 1.0) -> Observable:
    """Qhat_i = Q_i / sqrt(-2E) for sign=-1 (bound states) or Q_i / sqrt(2E)
    for sign=+1 (scattering states); only valid where sign*E > 0."""
    base = _Q_chart(i, k)
    en = _chart_energy(k)

    def _scale(E):
        arg = 2.0 * sign * E
        if np.any(arg <= 0.0):
            raise DomainError(
                f"rescaling needs sign*E > 0 (sign={sign:+d})", state=E
            )
        return 1.0 / np.sqrt(arg)

    def fn(s):
        s = np.asarray(s, float)
        return base.fn(s) * _scale(en.fn(s))

    def grad(s):
        s = np.asarray(s, float)
        E = en.fn(s)
        a = _scale(E)
        # d a / d E = -sign * (2 sign E)^(-3/2)
        da = -sign * (2.0 * sign * E) ** -1.5
        return a[..., None] * base.grad(s) + (base.fn(s) * da)[..., None] * en.grad(s)

    return Observable(f"Qhat{i + 1}", 8, fn, grad)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _build_registry():
    reg = {}
    reg["kepler_energy"] = _kepler_energy()
    for i in range(3):
        reg[f"L{i + 1}"] = _angular_momentum(i)
        reg[f"A{i + 1}"] = _runge_lenz(i)
    reg["conformal_energy"] = _conformal_energy()
    reg["h_yu"] = _h_yu()
    for i in range(3):
        reg[f"J{i + 1}_yu"] = _J_yu(i)
        reg[f"Q{i + 1}_yu"] = _Q_yu(i)
    reg["chart_energy"] = _chart_energy()
    reg["h"] = _h_chart()
    for i in range(3):
        reg[f"J{i + 1}"] = _J_chart(i)
        reg[f"Q{i + 1}"] = _Q_chart(i)
    for a in range(4):
        for b in range(a + 1, 4):
            obs = _L_ab(a, b)
            reg[obs.name] = obs
    for a in range(4):
        for b in range(a, 4):
            obs = _Q_ab(a, b)
            reg[obs.name] = obs
    return reg


OBSERVABLES: dict[str, Observable] = _build_registry()

# which registered observables are conserved along which flow (k = 1)
CONSERVED = {
    "kepler": ("kepler_energy", "L1", "L2", "L3", "A1", "A2", "A3"),
    "conformal": (
        "conformal_energy", "h_yu",
        "J1_yu", "J2_yu", "J3_yu", "Q1_yu", "Q2_yu", "Q3_yu",
    ),
    "reparametrized": (
        "chart_energy", "h", "J1", "J2", "J3", "Q1", "Q2", "Q3",
    ),
}


def observable(name: str) -> Observable:
    """Look up a registered observable by name."""
    try:
        return OBSERVABLES[name]
    except KeyError:
        raise KeyError(f"unknown observable {name!r}") from None
