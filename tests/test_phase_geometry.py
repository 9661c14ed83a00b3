"""Tests for the spinor chart: projection, tangent lift, fiber action, lifts."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksunfold import (
    DomainError,
    LiftError,
    fiber_act,
    fiber_matrix,
    fiber_momentum,
    ks_lift,
    ks_project,
    ks_tangent,
    ks_tangent_velocity,
    lift_frame,
    to_oscillator_chart,
)
from ksunfold.sampling import rng_from_seed, sample_states3, sample_states_sigma0


finite4 = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=4, max_size=4
).map(np.asarray)


def test_project_hand_example():
    # y = (1, 0, 0, 0) sits on the positive x3 axis at radius 1
    assert np.allclose(ks_project(np.array([1.0, 0.0, 0.0, 0.0])), [0.0, 0.0, 1.0])
    # y = (1, 1, 1, 1): x1 = 2(1+1) = 4, x2 = 2(1-1) = 0, x3 = 1+1-1-1 = 0
    x = ks_project(np.array([1.0, 1.0, 1.0, 1.0]))
    assert np.allclose(x, [4.0, 0.0, 0.0])


@given(finite4)
def test_project_norm_identity(y):
    x = ks_project(y)
    R2 = np.dot(y, y)
    assert abs(np.linalg.norm(x) - R2) <= 1e-12 * max(1.0, R2)


@given(finite4, st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
def test_projection_is_fiber_invariant(y, lam):
    assert np.allclose(ks_project(fiber_act(y, np.zeros(4), lam)[0]), ks_project(y), atol=1e-11)


def test_fiber_matrix_is_rotation():
    lam = 0.731
    S = fiber_matrix(lam)
    assert np.allclose(S @ S.T, np.eye(4), atol=1e-15)
    assert np.isclose(np.linalg.det(S), 1.0)
    # group law and identity
    assert np.allclose(fiber_matrix(0.2) @ fiber_matrix(0.5), fiber_matrix(0.7), atol=1e-15)
    assert np.allclose(fiber_matrix(2 * np.pi), np.eye(4), atol=1e-15)


def test_fiber_act_applies_same_rotation_to_both_legs():
    rng = rng_from_seed(5)
    y, u = rng.normal(size=4), rng.normal(size=4)
    lam = 1.234
    y2, u2 = fiber_act(y, u, lam)
    S = fiber_matrix(lam)
    assert np.allclose(y2, S @ y)
    assert np.allclose(u2, S @ u)


def test_tangent_lift_hand_example():
    # at y = (1, 0, 0, 0) with u = e2 the velocity is 2 M(y) u
    y = np.array([1.0, 0.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0, 0.0])
    v = ks_tangent_velocity(y, u)
    # M(y) rows for this y: x1 -> 2 y2, x2 -> -2 y0 ... direct finite check below
    eps = 1e-7
    fd = (ks_project(y + eps * u) - ks_project(y - eps * u)) / (2 * eps)
    assert np.allclose(v, fd, atol=1e-6)


@given(finite4, finite4)
def test_tangent_velocity_is_directional_derivative(y, u):
    v = ks_tangent_velocity(y, u)
    eps = 1e-6
    fd = (ks_project(y + eps * u) - ks_project(y - eps * u)) / (2 * eps)
    scale = max(1.0, float(np.max(np.abs(v))))
    assert np.allclose(v, fd, atol=5e-4 * scale)


def test_tangent_velocity_linear_in_u():
    rng = rng_from_seed(11)
    y = rng.normal(size=4)
    u1, u2 = rng.normal(size=4), rng.normal(size=4)
    lhs = ks_tangent_velocity(y, 2.0 * u1 - 3.0 * u2)
    rhs = 2.0 * ks_tangent_velocity(y, u1) - 3.0 * ks_tangent_velocity(y, u2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_lift_frame_orthogonality():
    rng = rng_from_seed(3)
    for _ in range(20):
        y = rng.normal(size=4)
        M = lift_frame(y)
        R2 = y @ y
        assert np.allclose(M @ M.T, R2 * np.eye(4), atol=1e-12 * max(1.0, R2))


def test_lift_frame_first_rows_give_tangent_velocity():
    rng = rng_from_seed(4)
    y, u = rng.normal(size=4), rng.normal(size=4)
    M = lift_frame(y)
    assert np.allclose(2.0 * (M @ u)[:3], ks_tangent_velocity(y, u), atol=1e-13)
    # fourth row is the fiber momentum direction: h = 4 R^2 (row4 . u)
    assert np.isclose(4 * (y @ y) * (M @ u)[3], fiber_momentum(y, u), atol=1e-12)


def test_metric_identity_hand_state():
    # |v|^2 = 4 R^2 |u|^2 - h^2 / (4 R^4) at y=(1,0,1,0), u=(0,1,0,1)
    y = np.array([1.0, 0.0, 1.0, 0.0])
    u = np.array([0.0, 1.0, 0.0, 1.0])
    _, v = ks_tangent(y, u)
    R2 = y @ y
    h = fiber_momentum(y, u)
    assert np.isclose(v @ v, 4 * R2 * (u @ u) - h**2 / (4 * R2**2), atol=1e-12)


def test_metric_identity_random():
    rng = rng_from_seed(7)
    y = rng.normal(size=(200, 4))
    u = rng.normal(size=(200, 4))
    _, v = ks_tangent(y, u)
    R2 = np.sum(y * y, axis=-1)
    h = fiber_momentum(y, u)
    lhs = np.sum(v * v, axis=-1)
    rhs = 4 * R2 * np.sum(u * u, axis=-1) - h**2 / (4 * R2**2)
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-12


def test_lift_roundtrip_both_charts():
    # one point with x3 well above zero, one well below, one at zero
    v = np.array([0.1, 0.2, -0.3])
    for x in ([0.3, -0.4, 1.2], [0.3, -0.4, -1.2], [0.6, 0.8, 0.0]):
        y, u = ks_lift(np.array(x), v)
        x_back, v_back = ks_tangent(y, u)
        assert np.allclose(x_back, x, atol=1e-13)
        assert np.allclose(v_back, v, atol=1e-13)


def test_lift_lands_on_zero_fiber_momentum():
    pts = sample_states3(300, seed=19)
    h = fiber_momentum(*ks_lift(pts[:, :3], pts[:, 3:]))
    assert np.max(np.abs(h)) < 1e-12


def test_lift_gauge_parameter_matches_fiber_action():
    x, v = np.array([0.4, -1.1, 0.8]), np.array([0.3, 0.0, -0.2])
    y0, u0 = ks_lift(x, v)
    for lam in (0.5, 2.0, -1.3):
        y, u = ks_lift(x, v, lam)
        y_ref, u_ref = fiber_act(y0, u0, lam)
        assert np.allclose(y, y_ref, atol=1e-13)
        assert np.allclose(u, u_ref, atol=1e-13)


def test_lift_roundtrip_random_cloud():
    pts = sample_states3(500, seed=23)
    y, u = ks_lift(pts[:, :3], pts[:, 3:])
    x_back, v_back = ks_tangent(y, u)
    assert np.max(np.abs(x_back - pts[:, :3])) < 1e-12
    assert np.max(np.abs(v_back - pts[:, 3:])) < 1e-12


def test_lift_rejects_origin():
    with pytest.raises(LiftError):
        ks_lift(np.zeros(3), np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_lift_rejects_a_gauge_angle_that_is_not_finite(lam):
    # before the fiber action, whose cos(inf) would warn and give NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gauge angle must be finite"):
            ks_lift(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), lam)


def test_oscillator_chart_roundtrip():
    rng = rng_from_seed(31)
    for _ in range(50):
        y, u = rng.normal(size=4), rng.normal(size=4)
        Y, U = to_oscillator_chart(y, u)
        assert np.allclose(Y, y)
        assert np.allclose(U, 2 * (y @ y) * u)
        # and back: u = U / (2 |Y|^2)
        assert np.allclose(U / (2 * (Y @ Y)), u, atol=1e-13)


def test_oscillator_chart_rejects_zero_point():
    with pytest.raises(DomainError):
        to_oscillator_chart(np.zeros(4), np.ones(4))


def test_fiber_momentum_zero_on_lifted_set():
    states = sample_states_sigma0(200, seed=41)
    h = fiber_momentum(states[:, :4], states[:, 4:])
    assert np.max(np.abs(h)) < 1e-12


@settings(max_examples=50)
@given(finite4, finite4, st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_fiber_momentum_invariant_under_action(y, u, lam):
    y2, u2 = fiber_act(y, u, lam)
    assert np.isclose(fiber_momentum(y2, u2), fiber_momentum(y, u), atol=1e-9)


def test_vectorized_projection_agrees_with_loop():
    rng = rng_from_seed(47)
    ys = rng.normal(size=(64, 4))
    batch = ks_project(ys)
    single = np.stack([ks_project(y) for y in ys])
    assert np.array_equal(batch, single)
