"""Seeded random state generators for the verification suites and tests.

All generators take an explicit integer seed and draw from numpy's Philox
bit generator, so every suite run is reproducible from its seed alone.
"""

from __future__ import annotations

import numpy as np

from .phase_geometry import ks_lift

__all__ = [
    "rng_from_seed",
    "sample_states3",
    "sample_states_sigma0",
    "sample_chart_states",
]


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.uint64(seed)))


def sample_states3(n: int, seed: int = 0):
    """n Kepler-side states (x, v) as an (n, 6) array, bounded away from the
    collision set: |x| uniform in [0.5, 3], direction uniform on the sphere,
    velocity components uniform in [-1.5, 1.5]."""
    rng = rng_from_seed(seed)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = rng.uniform(0.5, 3.0, size=(n, 1))
    v = rng.uniform(-1.5, 1.5, size=(n, 3))
    return np.concatenate([r * d, v], axis=1)


def sample_states_sigma0(n: int, seed: int = 0):
    """n states (y, u) on the zero level of the fiber momentum, as an (n, 8)
    array: lift random downstairs states (|x| in [0.5, 3], velocity
    components in [-1.5, 1.5], as `sample_states3`) at a random gauge angle.
    The lift lands on h = 0 by construction and the gauge action preserves
    it."""
    rng = rng_from_seed(seed)
    s3 = sample_states3(n, seed=rng.integers(2**63))
    lam = rng.uniform(0.0, 2.0 * np.pi, size=n)
    y, u = ks_lift(s3[:, :3], s3[:, 3:], lam)
    return np.concatenate([y, u], axis=1)


def sample_chart_states(n: int, seed: int = 0, energy_sign: int | None = None):
    """n oscillator-chart states (Y, U) as an (n, 8) array.

    energy_sign=-1 restricts |U| so that E = (|U|^2/2 - 1)/|Y|^2 < 0,
    energy_sign=+1 forces |U| large enough that E > 0, None leaves the
    magnitude unconstrained.  |Y| is kept in [0.7, 1.5] in all cases.
    """
    rng = rng_from_seed(seed)
    Y = rng.normal(size=(n, 4))
    Y *= (rng.uniform(0.7, 1.5, size=(n, 1))
          / np.linalg.norm(Y, axis=1, keepdims=True))
    U = rng.normal(size=(n, 4))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    if energy_sign is None:
        U *= rng.uniform(0.1, 2.5, size=(n, 1))
    elif energy_sign < 0:
        # |U|^2/2 < 1  =>  E < 0 regardless of |Y|
        U *= rng.uniform(0.1, 1.2, size=(n, 1))
        assert np.all(0.5 * np.sum(U * U, axis=1) < 1.0)
    else:
        U *= rng.uniform(1.05 * np.sqrt(2.0), 2.5 * np.sqrt(2.0), size=(n, 1))
        assert np.all(0.5 * np.sum(U * U, axis=1) > 1.0)
    return np.concatenate([Y, U], axis=1)
