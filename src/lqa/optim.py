"""Seven optimizers, one contract: a step updates `params` in place.

Every step overwrites the `params` vector it is given and returns that same
array, so callers must own the vector they pass. A NaN or Inf in a step's
inputs raises NonFiniteError before anything is written (LQA also rejects a
non-finite result after writing it). The six baselines (SGD, momentum,
Nesterov, AdaGrad, RMSProp, Adam) are the canonical recurrences at fixed
textbook hyperparameters (momentum and RMSProp decay 0.9, Adam's beta1 0.9
and beta2 0.999, eps 1e-8); only the rate is set per run. They are stepped
by `make_baseline(...).step`.

Updates run on one `BLOCK`-float slice at a time, each slice through all of
its passes while it is in cache, with the bits of the whole-vector form.

The seventh, `lqa_step`, picks its learning rate per batch step: it models
the batch loss along the gradient direction as a quadratic in the step size,
fits the two coefficients from the loss at params -+ delta0*grad (two extra
forward passes, no second derivatives), and steps with the minimizer
a/(2b), clamped to a fixed box. Degenerate fits fall back to the previous
rate instead of failing. Nothing about the rate is set per run: `LqaState`
takes at most a starting probe radius delta0; the rate it carries to the
next step, the step's verdict and its fit (a, b) are outputs each step
writes, and the box and the curvature floor are constants.

Sign convention, fixed once: probe(s) evaluates the loss at params - s*grad,
so the probe at -delta0 is the "uphill" point params + delta0*grad. With that
orientation the linear coefficient is estimated by
[probe(-delta0) - probe(+delta0)] / (2*delta0) and tends to dot(grad, grad)
as delta0 -> 0.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import NonFiniteError

__all__ = [
    "Verdict",
    "LqaState",
    "BASELINES",
    "lqa_step",
    "make_baseline",
]

# floats per slice of an update (256 KB), small enough to stay in L2 for all of its passes
BLOCK = 1 << 15


def _check_grad(grad):
    if not np.all(np.isfinite(grad)):
        raise NonFiniteError("gradient contains NaN or Inf")


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


BASELINES = ("sgd", "sgd-m", "sgd-nag", "adagrad", "rmsprop", "adam")


class _Baseline:
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
        if not 0.0 <= lr < math.inf:
            raise ValueError("lr must be finite and non-negative")
        self.name = name
        self.lr = lr
        # velocity (momentum), sum or mean of squares (AdaGrad, RMSProp), first moment (Adam)
        self.acc = None if name == "sgd" else np.zeros(dim, dtype=np.float64)
        if name == "adam":
            self.v = np.zeros(dim, dtype=np.float64)
            self.t = 0
            # one block of scratch for Adam's update, which would otherwise
            # allocate several temporaries per block
            self._work = np.empty(min(dim, BLOCK), dtype=np.float64)
            self._denom = np.empty(min(dim, BLOCK), dtype=np.float64)

    def step(self, params, grad):
        """Update `params` in place from `grad` and return `params` itself.

        Raises NonFiniteError, leaving `params` and the accumulators untouched,
        if `grad` holds NaN or Inf.
        """
        _check_grad(grad)
        name, lr = self.name, self.lr
        if name == "adam":
            b1, b2 = self.beta1, self.beta2
            self.t += 1
            c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for lo in range(0, params.size, BLOCK):
            s = slice(lo, lo + BLOCK)
            p, g = params[s], grad[s]
            acc = None if self.acc is None else self.acc[s]
            if name == "sgd":
                p -= lr * g
            elif name in ("sgd-m", "sgd-nag"):
                acc *= self.mu
                acc += g
                p -= lr * (g + self.mu * acc) if name == "sgd-nag" else lr * acc
            elif name == "adagrad":
                acc += g * g
                p -= lr * g / (np.sqrt(acc) + self.eps)
            elif name == "rmsprop":
                acc *= self.rho
                acc += (1.0 - self.rho) * g * g
                p -= lr * g / (np.sqrt(acc) + self.eps)
            else:
                # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
                # params -= lr*m_hat / (sqrt(v_hat) + eps), each operation in
                # that order so the result is bitwise that of the out-of-place form
                v, work, denom = self.v[s], self._work[: p.size], self._denom[: p.size]
                acc *= b1
                np.multiply(1.0 - b1, g, out=work)
                acc += work
                v *= b2
                np.multiply(1.0 - b2, g, out=work)
                work *= g
                v += work
                np.divide(acc, c1, out=work)
                work *= lr
                np.divide(v, c2, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.eps
                work /= denom
                p -= work
        return params


def make_baseline(name, lr, dim):
    """A stateful in-place stepper for one of the six baseline optimizers."""
    return _Baseline(name, lr, dim)


# ---------------------------------------------------------------------------
# Local quadratic approximation
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    """What the rate solver did with one batch step's fit."""

    ACCEPTED = "accepted"
    CLAMPED = "clamped"
    FALLBACK_NONPOSITIVE_A = "fallback_nonpositive_a"
    FALLBACK_SMALL_B = "fallback_small_b"
    SKIPPED_ZERO_GRAD = "skipped_zero_grad"


@dataclass
class LqaState:
    """The rate carried from one batch step to the next, its verdict and its fit.

    delta0 is the probe radius, seeded at 0.01 and thereafter chained from
    the previous step's solved rate. last_verdict, a and b are the last
    completed step's verdict and coefficient estimates (None before the
    first); they are outputs, not settings. The safeguards are constants of
    the method: the clamp box [delta_min, delta_max] = [1e-6, 10] and the
    curvature floor b_min = 1e-12 guard the solved rate against degenerate
    local shapes the quadratic model cannot represent.
    """

    delta_min = 1e-6
    delta_max = 10.0
    b_min = 1e-12

    delta0: float = 0.01
    last_verdict: Verdict | None = field(default=None, init=False)
    a: float | None = field(default=None, init=False)
    b: float | None = field(default=None, init=False)

    def __post_init__(self):
        if not self.delta_min <= self.delta0 <= self.delta_max:
            raise ValueError(
                f"delta0 must lie in [{self.delta_min}, {self.delta_max}], got {self.delta0}"
            )


def lqa_step(params, grad, loss0, probe, state):
    """One in-place update with a per-step estimated rate; returns `params`.

    loss0 is the loss at params and probe(s) the loss at params - s*grad. With
    d = state.delta0, central differences fit the loss change -a*s + b*s^2
    along the ray:
        a = [probe(-d) - probe(+d)] / (2*d)
        b = [probe(-d) + probe(+d) - 2*loss0] / (2*d^2)
    A healthy fit (positive slope, curvature above the floor) yields the rate
    a/(2b) clamped to [delta_min, delta_max]. Anything degenerate keeps the
    previous rate: a flat probe (a == b == 0) means a zero direction, a
    non-positive slope or sub-floor curvature means the local shape has no
    meaningful quadratic minimum. Steps params -= rate*grad and stores the
    rate (the next step's probe radius), the verdict and the fit on `state`.
    """
    _check_grad(grad)
    d = state.delta0
    loss_up = probe(-d)  # params + d*grad
    loss_down = probe(d)  # params - d*grad
    a = (loss_up - loss_down) / (2.0 * d)
    b = (loss_up + loss_down - 2.0 * loss0) / (2.0 * d * d)
    # b is non-finite whenever loss0 or a probe loss is; this also catches overflow
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteError("probe losses give a non-finite fit")
    # every rate lies in [delta_min, delta_max]: clamped, or d, which LqaState
    # keeps in that box, so it chains without another clamp
    if a == 0.0 and b == 0.0:
        rate, verdict = d, Verdict.SKIPPED_ZERO_GRAD
    elif a <= 0.0:
        rate, verdict = d, Verdict.FALLBACK_NONPOSITIVE_A
    elif b < state.b_min:
        rate, verdict = d, Verdict.FALLBACK_SMALL_B
    else:
        raw = a / (2.0 * b)
        rate = min(max(raw, state.delta_min), state.delta_max)
        verdict = Verdict.ACCEPTED if rate == raw else Verdict.CLAMPED
    for lo in range(0, params.size, BLOCK):
        params[lo : lo + BLOCK] -= rate * grad[lo : lo + BLOCK]
    if not np.all(np.isfinite(params)):
        raise NonFiniteError("update produced non-finite parameters")
    state.delta0, state.last_verdict, state.a, state.b = rate, verdict, a, b
    return params
