import numpy as np
import pytest

from lqa.data import synthetic_quadratic
from lqa.oracle import (
    QuadraticObjective,
    finite_diff_grad,
    quad_loss_grad,
    quad_optimal_step,
    ray_probe,
)
from lqa.tensor import Rng, rng_uniform


def test_rejects_asymmetric_matrix():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticObjective(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))


def test_rejects_indefinite_matrix():
    with pytest.raises(ValueError, match="positive definite"):
        QuadraticObjective(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))


def test_loss_grad_identity_hessian():
    q = QuadraticObjective(np.eye(2), np.zeros(2))
    loss, grad = quad_loss_grad(q, np.array([3.0, 4.0]))
    assert loss == 12.5
    assert np.array_equal(grad, [3.0, 4.0])


def test_gradient_vanishes_at_stationary_point():
    q = synthetic_quadratic(6, 21)
    theta_star = np.linalg.solve(q.A, q.c)
    _, grad = quad_loss_grad(q, theta_star)
    assert np.abs(grad).max() < 1e-10


def test_analytic_grad_matches_finite_differences():
    q = synthetic_quadratic(5, 8)
    theta = rng_uniform(Rng(1), (5,), -2.0, 2.0)
    _, grad = quad_loss_grad(q, theta)
    fd = finite_diff_grad(lambda t: quad_loss_grad(q, t)[0], theta)
    assert np.abs(grad - fd).max() < 1e-8


def test_optimal_step_diagonal_example():
    q = QuadraticObjective(np.diag([1.0, 4.0]), np.zeros(2))
    theta = np.array([1.0, 1.0])
    _, g = quad_loss_grad(q, theta)
    assert np.array_equal(g, [1.0, 4.0])
    step = quad_optimal_step(q, theta, g)
    assert abs(step - 17.0 / 65.0) < 1e-15


def test_optimal_step_identity_hessian_is_one():
    q = QuadraticObjective(np.eye(3), np.array([0.5, -1.0, 2.0]))
    theta = np.array([1.0, 2.0, 3.0])
    _, g = quad_loss_grad(q, theta)
    assert abs(quad_optimal_step(q, theta, g) - 1.0) < 1e-14


def test_landing_point_invariant_under_direction_rescale():
    # the rate scales by 1/lambda but theta - rate*direction stays put
    q = synthetic_quadratic(4, 3)
    theta = rng_uniform(Rng(2), (4,), -1.0, 1.0)
    _, g = quad_loss_grad(q, theta)
    land = theta - quad_optimal_step(q, theta, g) * g
    for lam in (0.1, 2.0, 37.5):
        scaled = lam * g
        land_scaled = theta - quad_optimal_step(q, theta, scaled) * scaled
        assert np.abs(land - land_scaled).max() < 1e-10


def test_optimal_step_rejects_zero_curvature_direction():
    q = QuadraticObjective(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        quad_optimal_step(q, np.ones(2), np.zeros(2))


def test_ray_probe_matches_direct_evaluation():
    q = synthetic_quadratic(6, 14)
    theta = rng_uniform(Rng(4), (6,), -1.0, 1.0)
    loss0, g = quad_loss_grad(q, theta)
    probe = ray_probe(q, theta, g)
    assert probe(0.0) == loss0
    for s in (-0.5, -0.01, 0.02, 0.3, 1.0):
        direct, _ = quad_loss_grad(q, theta - s * g)
        assert abs(probe(s) - direct) < 1e-12 * max(1.0, abs(direct))


def test_finite_diff_constant_function_is_zero():
    fd = finite_diff_grad(lambda t: 3.25, np.ones(4))
    assert np.array_equal(fd, np.zeros(4))


def test_finite_diff_error_scales_quadratically():
    # smooth non-quadratic: halving h should shrink the error about 4x
    theta = np.array([0.3, -0.7, 1.1])

    def loss(t):
        return float(np.sum(np.cos(t) + t**3))

    exact = -np.sin(theta) + 3.0 * theta**2
    err = lambda h: np.abs(finite_diff_grad(loss, theta, h) - exact).max()
    e1, e2 = err(1e-3), err(5e-4)
    assert 3.0 < e1 / e2 < 5.0


def test_finite_diff_checker_validates_oracle_itself():
    q = synthetic_quadratic(3, 5)
    theta = np.array([0.2, -0.4, 0.9])
    _, grad = quad_loss_grad(q, theta)
    fd = finite_diff_grad(lambda t: quad_loss_grad(q, t)[0], theta)
    assert np.abs(grad - fd).max() < 1e-8


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: 0.0, np.zeros(2), h=0.0)

