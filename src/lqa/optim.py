"""Seven optimizers, one contract: a step updates `params` in place.

Every step overwrites the `params` vector it is given and returns that same
array, so callers must own the vector they pass. A NaN or Inf in a step's
inputs raises NonFiniteError before anything is written (LQA also rejects a
non-finite result after writing it). The six baselines (SGD, momentum,
Nesterov, AdaGrad, RMSProp, Adam) are the canonical recurrences at fixed
textbook hyperparameters (momentum and RMSProp decay 0.9, Adam's beta1 0.9
and beta2 0.999, eps 1e-8); only the rate is set per run. They are stepped
by `make_baseline(...).step`.

The seventh, `lqa_step`, picks its learning rate per batch step: it models
the batch loss along the gradient direction as a quadratic in the step size,
estimates the two coefficients from the loss at params -+ delta0*grad (two
extra forward passes, no second derivatives), and steps with the minimizer
a/(2b). Degenerate fits fall back to the previous rate instead of failing.
`LqaState` carries the rate and the verdict from one step to the next.

Sign convention, fixed once: probe(s) evaluates the loss at params - s*grad,
so the probe at -delta0 is the "uphill" point params + delta0*grad. With that
orientation the linear coefficient is estimated by
[probe(-delta0) - probe(+delta0)] / (2*delta0) and tends to dot(grad, grad)
as delta0 -> 0.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .tensor import NonFiniteError

__all__ = [
    "Verdict",
    "LqaState",
    "Baseline",
    "BASELINES",
    "lqa_estimate_coefficients",
    "lqa_solve",
    "lqa_step",
    "make_baseline",
]


def _check_grad(grad):
    if not np.all(np.isfinite(grad)):
        raise NonFiniteError("gradient contains NaN or Inf")


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


BASELINES = ("sgd", "sgd-m", "sgd-nag", "adagrad", "rmsprop", "adam")


class Baseline:
    """One baseline optimizer: its rate and its accumulators between steps.

    Momentum mu, RMSProp decay rho, Adam's beta1/beta2 and eps are fixed at
    the textbook 0.9, 0.9, 0.9/0.999 and 1e-8.
    """

    mu = rho = beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, name, lr, dim):
        if name not in BASELINES:
            raise ValueError(f"unknown optimizer {name!r}")
        if not lr >= 0.0:
            raise ValueError("lr must be non-negative")
        self.name = name
        self.lr = lr
        # velocity (momentum), sum or mean of squares (AdaGrad, RMSProp), first moment (Adam)
        self.acc = None if name == "sgd" else np.zeros(dim, dtype=np.float64)
        if name == "adam":
            self.v = np.zeros(dim, dtype=np.float64)
            self.t = 0
            # scratch for Adam's update, which would otherwise allocate
            # several parameter-sized temporaries per step
            self._work = np.empty(dim, dtype=np.float64)
            self._denom = np.empty(dim, dtype=np.float64)

    def step(self, params, grad):
        """Update `params` in place from `grad` and return `params` itself.

        Raises NonFiniteError, leaving `params` and the accumulators untouched,
        if `grad` holds NaN or Inf.
        """
        _check_grad(grad)
        name, lr, acc = self.name, self.lr, self.acc
        if name == "sgd":
            params -= lr * grad
        elif name in ("sgd-m", "sgd-nag"):
            acc *= self.mu
            acc += grad
            params -= lr * (grad + self.mu * acc) if name == "sgd-nag" else lr * acc
        elif name == "adagrad":
            acc += grad * grad
            params -= lr * grad / (np.sqrt(acc) + self.eps)
        elif name == "rmsprop":
            acc *= self.rho
            acc += (1.0 - self.rho) * grad * grad
            params -= lr * grad / (np.sqrt(acc) + self.eps)
        else:
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
            # params -= lr*m_hat / (sqrt(v_hat) + eps), each operation in that
            # order so the result is bitwise that of the out-of-place form
            b1, b2, v, work, denom = self.beta1, self.beta2, self.v, self._work, self._denom
            self.t += 1
            acc *= b1
            np.multiply(1.0 - b1, grad, out=work)
            acc += work
            v *= b2
            np.multiply(1.0 - b2, grad, out=work)
            work *= grad
            v += work
            np.divide(acc, 1.0 - b1**self.t, out=work)
            work *= lr
            np.divide(v, 1.0 - b2**self.t, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            work /= denom
            params -= work
        return params


def make_baseline(name, lr, dim):
    """A stateful in-place stepper for one of the six baseline optimizers."""
    return Baseline(name, lr, dim)


# ---------------------------------------------------------------------------
# Local quadratic approximation
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    """What the rate solver did with one batch step's coefficient estimates."""

    ACCEPTED = "accepted"
    CLAMPED = "clamped"
    FALLBACK_NONPOSITIVE_A = "fallback_nonpositive_a"
    FALLBACK_SMALL_B = "fallback_small_b"
    SKIPPED_ZERO_GRAD = "skipped_zero_grad"


@dataclass
class LqaState:
    """Probe rate and safeguards carried from one batch step to the next.

    delta0 is the probe radius, seeded small and thereafter chained from the
    previous step's solved rate. The clamp box and the curvature floor guard
    the solved rate against degenerate local shapes the quadratic model
    cannot represent.
    """

    delta0: float = 0.01
    delta_min: float = 1e-6
    delta_max: float = 10.0
    b_min: float = 1e-12
    last_verdict: Verdict | None = None

    def __post_init__(self):
        if not (0.0 < self.delta_min <= self.delta0 <= self.delta_max):
            raise ValueError(
                f"need 0 < delta_min <= delta0 <= delta_max, got "
                f"[{self.delta_min}, {self.delta0}, {self.delta_max}]"
            )
        if not self.b_min > 0.0:
            raise ValueError("b_min must be positive")


def lqa_solve(a, b, state):
    """Resolve the coefficient estimates a, b into a usable rate and a verdict.

    A healthy fit (positive slope, curvature above the floor) yields
    a/(2b) clamped to [delta_min, delta_max]. Anything degenerate keeps the
    previous rate: a flat probe (a == b == 0) means a zero direction, a
    non-positive slope or sub-floor curvature means the local shape has no
    meaningful quadratic minimum.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteError("coefficient estimates are not finite")
    if a == 0.0 and b == 0.0:
        return state.delta0, Verdict.SKIPPED_ZERO_GRAD
    if a <= 0.0:
        return state.delta0, Verdict.FALLBACK_NONPOSITIVE_A
    if b < state.b_min:
        return state.delta0, Verdict.FALLBACK_SMALL_B
    raw = a / (2.0 * b)
    clamped = min(max(raw, state.delta_min), state.delta_max)
    return clamped, Verdict.ACCEPTED if clamped == raw else Verdict.CLAMPED


def lqa_estimate_coefficients(loss0, probe, delta0):
    """Central-difference estimates (a, b) of the loss change -a*s + b*s^2 along the ray.

    With probe(s) = loss at params - s*grad:
        a = [probe(-delta0) - probe(+delta0)] / (2*delta0)
        b = [probe(-delta0) + probe(+delta0) - 2*loss0] / (2*delta0^2)
    Any positive delta0 is legal; lqa_solve turns the estimates into a rate.
    """
    if not delta0 > 0.0:
        raise ValueError("delta0 must be positive")
    loss_up = probe(-delta0)  # params + delta0*grad
    loss_down = probe(delta0)  # params - delta0*grad
    if not (math.isfinite(loss_up) and math.isfinite(loss_down) and math.isfinite(loss0)):
        raise NonFiniteError("probe returned a non-finite loss")
    a = (loss_up - loss_down) / (2.0 * delta0)
    b = (loss_up + loss_down - 2.0 * loss0) / (2.0 * delta0 * delta0)
    return a, b


def lqa_step(params, grad, loss0, probe, state):
    """One in-place update with a per-step estimated rate; returns `params`.

    loss0 is the loss at params. Probes the loss at params -+ delta0*grad,
    solves for the rate, steps params -= rate*grad, and stores the rate (the
    next step's probe radius) and the verdict on `state`.
    """
    _check_grad(grad)
    a, b = lqa_estimate_coefficients(loss0, probe, state.delta0)
    # lqa_solve returns a rate inside [delta_min, delta_max] or state.delta0,
    # which LqaState keeps in that box, so it chains without another clamp
    rate, verdict = lqa_solve(a, b, state)
    params -= rate * grad
    if not np.all(np.isfinite(params)):
        raise NonFiniteError("update produced non-finite parameters")
    state.delta0, state.last_verdict = rate, verdict
    return params
