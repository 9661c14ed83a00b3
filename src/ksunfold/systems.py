"""Dynamical systems and named observables.

Every vector field used by the package is wrapped as a `DynamicalSystem`
(dimension tag, right-hand side, optional energy, default monitors), and
every conserved quantity as an `Observable` with a closed-form gradient,
built from quadratic forms by the observable algebra.
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

import contextlib
import contextvars
import functools
import math
import operator
import struct
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DomainError
from .phase_geometry import fiber_momentum, ks_tangent_velocity

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
    "OBSERVABLES",
    "CONSERVED",
    "oscillator_invariant",
    "rescaled_runge_lenz",
    "observables",
    "quadratic_observable",
    "K_J",
    "K_H",
    "S_KS",
]


# the state batch of the open `_shared_values` scope and the values computed
# at it so far, keyed by evaluator; None outside a scope
_SCOPE = contextvars.ContextVar("ksunfold_shared_values", default=None)


@contextlib.contextmanager
def _shared_values(states):
    """Within the block every observable's value at `states` (that array
    object, not an equal one) is computed once and shared, read-only, by
    every composite, gradient and caller that needs it; the values are
    dropped when the block ends.  The caller must not change `states` in
    place inside the block."""
    token = _SCOPE.set((states, {}))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _sharing(fn):
    """fn, with its value at the state batch of an open `_shared_values`
    scope computed once; unchanged everywhere else."""

    def value(s):
        scope = _SCOPE.get()
        if scope is None or s is not scope[0]:
            return fn(s)
        memo = scope[1]
        if value not in memo:
            v = fn(s)
            if isinstance(v, np.ndarray):
                # a read-only view, so no user of the shared value can change
                # it and fn's own array keeps its flags
                v = v.view()
                v.flags.writeable = False
            memo[value] = v
        return memo[value]

    value.shares_values = True
    return value


@dataclass(frozen=True)
class Observable:
    """Named scalar function on a phase space with a closed-form gradient.

    Observables form an algebra: `f + g`, `f - g`, `-f`, `f * g` (g an
    observable or a number) and `f.compose(phi, dphi)` build new observables
    with their chain-rule gradients.  A composite calls its parts' `fn` and
    `grad`, never their `gradient`.  Inside a `_shared_values` scope (opened
    only by `symplectic.verify_structure_constants`) `fn` computes each
    node's value at the scope's state batch once, and every bracket,
    gradient and right-hand side reuses it; gradients are not shared.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        # `replace` hands a new node the evaluator it already shares
        if not getattr(self.fn, "shares_values", False):
            object.__setattr__(self, "fn", _sharing(self.fn))

    def __call__(self, s):
        return self.fn(np.asarray(s, dtype=float))

    def gradient(self, s):
        if self.grad is None:
            raise ValueError(f"observable {self.name!r} has no closed-form gradient")
        return self.grad(np.asarray(s, dtype=float))

    def _derived(self, name, fn, grad, other=None) -> "Observable":
        """A composite of self and other; without a gradient when a part
        has none."""
        parts = (self,) if other is None else (self, other)
        if other is not None and other.dim != self.dim:
            raise ValueError(f"cannot combine {self.name!r} (dim {self.dim}) "
                             f"with {other.name!r} (dim {other.dim})")
        if any(p.grad is None for p in parts):
            grad = None
        return Observable(name, self.dim, fn, grad)

    def __add__(self, other):
        f = self
        if isinstance(other, Observable):
            return f._derived(f"({f.name} + {other.name})",
                              lambda s: f.fn(s) + other.fn(s),
                              lambda s: f.grad(s) + other.grad(s), other)
        c = float(other)
        return Observable(f"({f.name} + {c:g})", f.dim,
                          lambda s: f.fn(s) + c, f.grad)

    __radd__ = __add__

    def __sub__(self, other):
        f = self
        if isinstance(other, Observable):
            return f._derived(f"({f.name} - {other.name})",
                              lambda s: f.fn(s) - other.fn(s),
                              lambda s: f.grad(s) - other.grad(s), other)
        return f + -float(other)

    def __neg__(self):
        return -1.0 * self

    def __mul__(self, other):
        f = self
        if isinstance(other, Observable):
            return f._derived(
                f"{f.name}*{other.name}",
                lambda s: f.fn(s) * other.fn(s),
                lambda s: (f.fn(s)[..., None] * other.grad(s)
                           + other.fn(s)[..., None] * f.grad(s)), other)
        c = float(other)
        return f._derived(f"{c:g}*{f.name}", lambda s: c * f.fn(s),
                          lambda s: c * f.grad(s))

    __rmul__ = __mul__

    def compose(self, phi, dphi) -> "Observable":
        """phi(f) for a scalar function phi with derivative dphi."""
        f = self
        return f._derived(f"{phi.__name__}({f.name})",
                          lambda s: phi(f.fn(s)),
                          lambda s: dphi(f.fn(s))[..., None] * f.grad(s))


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


# J_i = (1/2) Y^T K_i U ; index positions are (y1,y2,y3,y0) -> (0,1,2,3)
K_J = (
    _antisym([(0, 3, 1.0), (2, 1, 1.0)]),   # J1 = (Y1 U0 - Y0 U1 + Y3 U2 - Y2 U3)/2
    _antisym([(0, 2, 1.0), (1, 3, 1.0)]),   # J2 = (Y1 U3 - Y3 U1 + Y2 U0 - Y0 U2)/2
    _antisym([(0, 1, 1.0), (3, 2, 1.0)]),   # J3 = (Y1 U2 - Y2 U1 + Y0 U3 - Y3 U0)/2
)

# the KS map's coefficients, read off the map at unit vectors e_a, e_b:
# v_i(e_a, e_b) = 2 S_i[a, b] for the KS forms x_i(y) = y^T S_i y, and
# h(e_a, e_b) = 4 K_H[a, b] for h = 4 R^2 y^T K_H u = 2 Y^T K_H U
_E4 = np.eye(4)
_V_UNIT = ks_tangent_velocity(_E4[:, None], _E4)
S_KS = tuple(0.5 * _V_UNIT[..., i] for i in range(3))
K_H = 0.25 * fiber_momentum(_E4[:, None], _E4)

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_j, _i, _k] = -1.0


def _finite(name, value):
    """value, a float or an array, once it is checked finite (every entry of
    it); ValueError naming the parameter otherwise."""
    # math.isfinite costs a fiftieth of the NumPy check on a float
    if not (math.isfinite(value) if isinstance(value, float)
            else np.isfinite(value).all()):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _positive_count(name: str, value) -> int:
    """value as an int once it is checked a positive integer (not a bool);
    ValueError naming the parameter otherwise."""
    try:
        n = operator.index(value)
    except TypeError:
        n = 0
    if n <= 0 or isinstance(value, bool):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return n


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
    """Kepler: dx/dt = v, dv/dt = -k x / r^3.  Rejects r < r_min.

    For |k| <= 1e100 its rhs carries `rhs.stage`, the fused kernel that
    `integrate`'s step loop calls on each stage: `stage(y, h, d, row)`
    forms the stage state y + h d of six floats (y a sequence, d a
    buffer), packs its rhs into `row`, a writable buffer of 48 bytes, and
    returns the state as a list; or it writes nothing and returns None.
    The rhs itself is the array expression, for one state or a batch,
    whose bits `stage` gives; both form r^3 as r^2 * r, one rounding from
    the r^2 already summed."""
    # a NaN r_min would switch the r < r_min guard off
    r_min = _finite("r_min", float(r_min))
    # bound once: the kernel reads them as closure cells, not as globals
    # and attributes; (-k) * x0 is what -k * x0 parses to
    sqrt, isfinite, neg_k = math.sqrt, math.isfinite, -k
    pack = struct.Struct("6d").pack_into

    def stage(y, h, d, row):
        # In Python floats with NumPy's roundings: each component of
        # y + h * d is rounded twice, as in the array expression, r^2's sum
        # runs left to right, as np.add.reduce does for three terms, sqrt
        # is correctly rounded in both, and r^3 is the one product r^2 * r
        # in both.  Only where nothing below can overflow or become 0: with
        # 1e-100 < r < 1e100, r^3 lies in (1e-300, 1e300) and
        # |k x_i / r^3| <= |k| / r^2 < 1e300 for |k| <= 1e100.  Every other
        # stage state (r < r_min, a NaN or infinite component, ...) returns
        # None, with row untouched: the loop forms it in NumPy, with its
        # warnings, and the array expression in `rhs` raises or warns.
        y0, y1, y2, y3, y4, y5 = y
        d0, d1, d2, d3, d4, d5 = d
        x0 = y0 + h * d0
        x1 = y1 + h * d1
        x2 = y2 + h * d2
        v0 = y3 + h * d3
        v1 = y4 + h * d4
        v2 = y5 + h * d5
        r2 = x0 * x0 + x1 * x1 + x2 * x2
        r = sqrt(r2)
        if 1e-100 < r < 1e100 and r >= r_min and isfinite(v0 + v1 + v2):
            r3 = r2 * r
            pack(row, 0, v0, v1, v2, neg_k * x0 / r3, neg_k * x1 / r3,
                 neg_k * x2 / r3)
            return [x0, x1, x2, v0, v1, v2]
        return None

    def rhs(s):
        s = np.asarray(s, dtype=float)
        x = s[..., :3]
        r2 = np.add.reduce(x * x, axis=-1)
        r = np.sqrt(r2)  # np.linalg.norm's own body
        below = r < r_min
        # .any() goes through NumPy's Python-level _methods; one state
        # needs only the comparison
        if below.any() if s.ndim > 1 else below:
            raise DomainError(f"kepler rhs: r < r_min = {r_min:g}", state=s)
        acc = -k * x / (r2 * r)[..., None]
        return np.concatenate((s[..., 3:6], acc), axis=-1)

    if abs(k) <= 1e100:
        rhs.stage = stage
    reg = observables(k)
    return DynamicalSystem(
        name="kepler",
        dim=6,
        rhs=rhs,
        energy=reg["kepler_energy"],
        monitors=tuple(reg[n] for n in CONSERVED["kepler"]),
        state_names=("x1", "x2", "x3", "v1", "v2", "v3"),
    )


def free3d_field() -> DynamicalSystem:
    """Free particle in 3-D: dx/dt = v, dv/dt = 0."""

    def rhs(s):
        s = np.asarray(s, dtype=float)
        x, v = _split3(s)
        return np.concatenate([v, np.zeros_like(x)], axis=-1)

    energy = replace(0.5 * _V2, name="free_energy")
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
    R_min = _finite("R_min", float(R_min))

    def rhs(s):
        s = np.asarray(s, dtype=float)
        y, u = _split4(s)
        R = np.linalg.norm(y, axis=-1)
        if np.any(R < R_min):
            raise DomainError(f"conformal rhs: R < R_min = {R_min:g}", state=s)
        return np.concatenate([u, conformal_acceleration(y, u, k)], axis=-1)

    reg = observables(k)
    return DynamicalSystem(
        name="conformal",
        dim=8,
        rhs=rhs,
        energy=reg["conformal_energy"],
        monitors=tuple(reg[n] for n in ("conformal_energy", "h_yu", "J1_yu",
                                         "J2_yu", "J3_yu")),
        state_names=("y1", "y2", "y3", "y0", "u1", "u2", "u3", "u0"),
    )


def completed_oscillator_field(E: float, k: float = 1.0) -> DynamicalSystem:
    """The completed linear field on (Y, U): dY/dtau = U, dU/dtau = 2E Y.

    Defined on all of R^8 (including Y = 0) and complete for every E; this is
    the energy-E member of the oscillator family the Kepler flow unfolds
    into (frequency sqrt(-2E) for E < 0).
    """
    E = _finite("E", float(E))

    def rhs(s):
        s = np.asarray(s, dtype=float)
        Y, U = _split4(s)
        return np.concatenate([U, 2.0 * E * Y], axis=-1)

    inv = oscillator_invariant(E)
    reg = observables(k)
    return DynamicalSystem(
        name="oscillator",
        dim=8,
        rhs=rhs,
        energy=inv,
        monitors=(inv, reg["chart_energy"], reg["h"]),
        state_names=("Y1", "Y2", "Y3", "Y0", "U1", "U2", "U3", "U0"),
    )


def reparametrized_field(
    scaling: EnergyScaling | None = None, k: float = 1.0
) -> DynamicalSystem:
    """Reparametrized field in the oscillator chart with the energy read off
    the state: dY/dtau = g(E) U, dU/dtau = 2 g(E) E Y, E = (|U|^2/2 - k)/|Y|^2.

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
        g = np.asarray(scaling(E))
        return np.concatenate([g[..., None] * U, (2.0 * g * E)[..., None] * Y],
                              axis=-1)

    reg = observables(k)
    return DynamicalSystem(
        name=f"reparametrized[{scaling.name}]",
        dim=8,
        rhs=rhs,
        energy=reg["chart_energy"],
        monitors=(reg["chart_energy"], reg["h"]),
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
        E = _finite("E", float(E))

        def acceleration(r, vr):
            return (2.0 * E - vr * vr) / r

        # l^2 = r^2 (2E - vr^2) is the conserved quantity of this variant
        energy = replace(_R2 * (-_VR2 + 2.0 * E), name="radial_l2")
    elif variant == "angular":
        if l is None:
            raise ValueError("angular variant needs l")
        l = _finite("l", float(l))

        def acceleration(r, vr):
            return l * l / r**3

        energy = replace(0.5 * _VR2 + 0.5 * l * l * _INV_R2,
                         name="radial_energy")
    else:
        raise ValueError(f"unknown radial variant {variant!r}")

    def rhs(s):
        s = np.asarray(s, dtype=float)
        r, vr = s[..., 0], s[..., 1]
        if np.any(r <= 0.0):
            raise DomainError("radial rhs needs r > 0", state=s)
        return np.stack([vr, acceleration(r, vr)], axis=-1)

    return DynamicalSystem(
        "radial", 2, rhs, energy=energy, monitors=(energy,),
        state_names=("r", "vr"),
    )


# smallest particle gap |q2 - q1| of the Calogero-Moser system
_CALOGERO_GAP = 1e-9


def calogero_moser_field(l: float) -> DynamicalSystem:
    """Two-body rational Calogero-Moser system on (q1, q2, qd1, qd2):
    q1'' = -2 l^2/(q2-q1)^3, q2'' = +2 l^2/(q2-q1)^3."""
    l = _finite("l", float(l))

    def rhs(s):
        s = np.asarray(s, dtype=float)
        q1, q2, qd1, qd2 = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
        gap = q2 - q1
        if np.any(np.abs(gap) < _CALOGERO_GAP):
            raise DomainError(
                f"calogero rhs: |q2 - q1| < {_CALOGERO_GAP:g}", state=s
            )
        a = 2.0 * l * l / gap**3
        return np.stack([qd1, qd2, -a, a], axis=-1)

    energy = replace(0.5 * _QD2 + l * l * _INV_GAP2, name="calogero_energy")
    return DynamicalSystem(
        "calogero", 4, rhs, energy=energy, monitors=(energy,),
        state_names=("q1", "q2", "qd1", "qd2"),
    )


# ---------------------------------------------------------------------------
# observables, built by the algebra from quadratic forms
# ---------------------------------------------------------------------------

def quadratic_observable(P: np.ndarray, name: str = "quadratic") -> Observable:
    """f(s) = (1/2) s^T P s for symmetric P, with gradient P s."""
    P = 0.5 * (np.asarray(P, dtype=float) + np.asarray(P, dtype=float).T)
    half = 0.5 * P
    # a two-operand einsum costs less per batch than np.add.reduce over the
    # short last axis or the three-operand einsum
    return Observable(
        name,
        P.shape[0],
        fn=lambda s: np.einsum("...i,...i->...", s, s @ half),
        grad=lambda s: s @ P,
    )


def _form(n, aa=0.0, ab=0.0, bb=0.0) -> Observable:
    """a^T aa a + a^T ab b + b^T bb b on the state s = (a, b) in R^(2n),
    for symmetric aa and bb."""
    aa, ab, bb = (np.zeros((n, n)) + m for m in (aa, ab, bb))
    return quadratic_observable(np.block([[2.0 * aa, ab], [ab.T, 2.0 * bb]]))


def _coordinate(n, i) -> Observable:
    """The linear observable s_i on R^n."""
    e = np.eye(n)[i]
    return Observable(f"s{i}", n, lambda s: s[..., i],
                      lambda s: np.broadcast_to(e, s.shape))


def _inverse(t):
    return 1.0 / t


def _d_inverse(t):
    return -1.0 / (t * t)


def _inverse_sqrt(t):
    return 1.0 / np.sqrt(t)


def _d_inverse_sqrt(t):
    return -0.5 / (t * np.sqrt(t))


# Kepler side, on (x, v)
_X2, _V2 = _form(3, aa=np.eye(3)), _form(3, bb=np.eye(3))
_XV = _form(3, ab=np.eye(3))
_L = tuple(_form(3, ab=_EPS[i]) for i in range(3))
# the (y, u) and (Y, U) sides share these forms on the halves of the state
_Y2, _U2 = _form(4, aa=_E4), _form(4, bb=_E4)
_H = _form(4, ab=2.0 * K_H)
_J = tuple(_form(4, ab=0.5 * K) for K in K_J)
_XY = tuple(_form(4, aa=S) for S in S_KS)
_XU = tuple(_form(4, bb=S) for S in S_KS)
_INV_Y2 = _Y2.compose(_inverse, _d_inverse)
# radial side, on (r, vr)
_R2, _VR2 = _form(1, aa=1.0), _form(1, bb=1.0)
_INV_R2 = _R2.compose(_inverse, _d_inverse)
# Calogero side, on (q1, q2, qd1, qd2): |qd|^2 and 1/(q2 - q1)^2, with the
# gap squared as a product, since the expanded form q1^2 - 2 q1 q2 + q2^2
# loses digits as the particles close in
_QD2 = _form(2, bb=np.eye(2))
_GAP = _coordinate(4, 1) - _coordinate(4, 0)
_INV_GAP2 = (_GAP * _GAP).compose(_inverse, _d_inverse)


def _chart_energy(k=1.0):
    """The conformal energy expressed through the chart:
    E = (|U|^2/2 - k)/R^2 with R^2 = |Y|^2."""
    return replace((0.5 * _U2 - k) * _INV_Y2, name="chart_energy")


def observables(k: float = 1.0) -> Mapping[str, Observable]:
    """The registered observables at force constant k, by name; read-only,
    since every caller with the same k shares it."""
    return _registry(_finite("k", float(k)))  # one cache entry for 2 and 2.0


@functools.cache
def _registry(k: float) -> Mapping[str, Observable]:
    inv_r = _X2.compose(_inverse_sqrt, _d_inverse_sqrt)
    reg = {"kepler_energy": 0.5 * _V2 - k * inv_r}
    for i in range(3):
        reg[f"L{i + 1}"] = _L[i]
        # A = k x/r - v x L = (k/r - |v|^2) x + (x.v) v
        reg[f"A{i + 1}"] = ((k * inv_r - _V2) * _coordinate(6, i)
                            + _XV * _coordinate(6, 3 + i))
    conformal = 2.0 * (_Y2 * _U2) - k * _INV_Y2
    reg["conformal_energy"] = conformal
    reg["h_yu"] = 2.0 * (_Y2 * _H)
    for i in range(3):
        reg[f"J{i + 1}_yu"] = 2.0 * (_Y2 * _J[i])
        reg[f"Q{i + 1}_yu"] = (_Y2 * _Y2) * _XU[i] - 0.5 * conformal * _XY[i]
    energy = reg["chart_energy"] = _chart_energy(k)
    reg["h"] = _H
    for i in range(3):
        reg[f"J{i + 1}"] = _J[i]
        # Q_i = (1/4)[x_i(U) - 2E x_i(Y)], defined for either energy sign
        reg[f"Q{i + 1}"] = 0.25 * _XU[i] - 0.5 * energy * _XY[i]
    return MappingProxyType({name: replace(obs, name=name)
                             for name, obs in reg.items()})


def oscillator_invariant(E: float) -> Observable:
    """C = |U|^2/2 - E |Y|^2, the conserved quadratic of the completed field
    at energy E.  On states compatible with the conformal system C == k, and
    unlike the chart energy it stays regular through Y = 0."""
    E = _finite("E", float(E))
    return replace(0.5 * _U2 - E * _Y2, name="oscillator_invariant")


def rescaled_runge_lenz(i: int, sign: int, k: float = 1.0) -> Observable:
    """Qhat_i = Q_i / sqrt(-2E) for sign=-1 (bound states) or Q_i / sqrt(2E)
    for sign=+1 (scattering states); only valid where sign*E > 0."""
    reg = observables(k)
    Qhat = reg[f"Q{i + 1}"] * _energy_rescaling(sign, float(k))
    return replace(Qhat, name=f"Qhat{i + 1}")


@functools.cache
def _energy_rescaling(sign: int, k: float) -> Observable:
    """1/sqrt(2 sign E) of the chart energy, one node that all Qhat_i share;
    its gradient reads the node's own value, so a shared-value scope takes
    one square root per state batch."""

    def scale(E):
        arg = 2.0 * sign * E
        if np.any(arg <= 0.0):
            raise DomainError(
                f"rescaling needs sign*E > 0 (sign={sign:+d})", state=E
            )
        return 1.0 / np.sqrt(arg)

    energy = observables(k)["chart_energy"]
    # d/dE of 1/sqrt(2 sign E) is -sign times the node's own value cubed
    node = energy._derived(
        f"scale({energy.name})", lambda s: scale(energy.fn(s)),
        lambda s: (-sign * node.fn(s) ** 3)[..., None] * energy.grad(s))
    return node


OBSERVABLES: Mapping[str, Observable] = observables(1.0)

# which registered observables are conserved along which flow
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
