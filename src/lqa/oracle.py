"""Small-scale ground truth for verifying the optimizer and the backprop code.

A quadratic objective with an explicit positive-definite Hessian has a closed
form for the best step size along any descent direction, so it pins down what
the probe-based estimator must reproduce. This is the only place in the
package where a Hessian is ever materialized.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import NonFiniteError

__all__ = [
    "QuadraticObjective",
    "quad_loss_grad",
    "quad_optimal_step",
    "ray_probe",
    "finite_diff_grad",
]

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticObjective:
    """Loss 0.5 * theta^T A theta - c^T theta with symmetric positive-definite A."""

    A: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if c.shape != (A.shape[0],):
            raise ValueError(f"c must have shape ({A.shape[0]},), got {c.shape}")
        scale = max(1.0, float(np.abs(A).max()))
        if float(np.abs(A - A.T).max()) > _SYMMETRY_TOL * scale:
            raise ValueError("A is not symmetric")
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise ValueError("A is not positive definite") from None
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)

    @property
    def dim(self):
        return self.A.shape[0]


def quad_loss_grad(q, theta):
    """Loss and analytic gradient (A theta - c) at theta."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (q.dim,):
        raise ValueError(f"theta must have shape ({q.dim},), got {theta.shape}")
    Atheta = q.A @ theta
    loss = 0.5 * float(theta @ Atheta) - float(q.c @ theta)
    return loss, Atheta - q.c


def quad_optimal_step(q, theta, g):
    """The exact minimizer of loss(theta - s*g) over s.

    Equals (g^T grad) / (g^T A g); requires positive curvature along g.
    """
    theta = np.asarray(theta, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    gAg = float(g @ (q.A @ g))
    if gAg <= 0.0:
        raise ValueError("non-positive curvature along the given direction")
    _, grad = quad_loss_grad(q, theta)
    return float(g @ grad) / gAg


def ray_probe(q, theta, g):
    """Loss along the ray theta - s*g as a function of s.

    Returns a callable probe(s) with probe(0) == loss(theta). The quadratic
    restricted to the ray is loss0 - s*(g^T grad) + 0.5*s^2*(g^T A g); that
    polynomial is evaluated directly, which gives the same values as
    re-evaluating the full loss at the shifted point but without the
    catastrophic cancellation a small s would otherwise cause.
    """
    theta = np.asarray(theta, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    loss0, grad = quad_loss_grad(q, theta)
    lin = float(g @ grad)
    curv = float(g @ (q.A @ g))

    def probe(s):
        s = float(s)
        return loss0 - s * lin + 0.5 * s * s * curv

    return probe


def finite_diff_grad(loss_fn, theta, h=1e-5):
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    theta = np.asarray(theta, dtype=np.float64)
    if not h > 0.0:
        raise ValueError("h must be positive")
    grad = np.zeros_like(theta)
    work = theta.copy()
    for i in range(theta.size):
        orig = work[i]
        work[i] = orig + h
        f_plus = float(loss_fn(work))
        work[i] = orig - h
        f_minus = float(loss_fn(work))
        work[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteError(f"non-finite loss while differencing coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad

