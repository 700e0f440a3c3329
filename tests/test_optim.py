import math
from dataclasses import replace

import numpy as np
import pytest

from lqa import nn
from lqa.data import Batch, synthetic_quadratic
from lqa.optim import (
    BASELINES,
    LqaState,
    Verdict,
    lqa_estimate_coefficients,
    lqa_solve,
    lqa_step,
    make_baseline,
)
from lqa.oracle import quad_loss_grad, quad_optimal_step, ray_probe
from lqa.tensor import NonFiniteError, Rng, rng_uniform


# --- baselines ---------------------------------------------------------------


def out_of_place_baseline(name, lr, dim, mu=0.9, rho=0.9, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook recurrence for one baseline, each step returning a new vector.

    This is the reference the in-place steppers must match bit for bit, so
    every expression keeps the evaluation order written here.
    """
    acc, second, t = np.zeros(dim), np.zeros(dim), 0

    def step(p, g):
        nonlocal acc, second, t
        if name == "sgd":
            return p - lr * g
        if name in ("sgd-m", "sgd-nag"):
            acc = mu * acc + g
            return p - lr * (g + mu * acc) if name == "sgd-nag" else p - lr * acc
        if name == "adagrad":
            acc = acc + g * g
            return p - lr * g / (np.sqrt(acc) + eps)
        if name == "rmsprop":
            acc = rho * acc + (1.0 - rho) * g * g
            return p - lr * g / (np.sqrt(acc) + eps)
        t += 1
        acc = beta1 * acc + (1.0 - beta1) * g
        second = beta2 * second + (1.0 - beta2) * g * g
        m_hat = acc / (1.0 - beta1**t)
        v_hat = second / (1.0 - beta2**t)
        return p - lr * m_hat / (np.sqrt(v_hat) + eps)

    return step


@pytest.mark.parametrize("name", BASELINES)
def test_in_place_step_matches_out_of_place_recurrence_bitwise(name):
    rng = Rng(41)
    params = rng_uniform(rng, (257,), -1.0, 1.0)
    expected = params.copy()
    stepper = make_baseline(name, 0.01, params.size)
    reference = out_of_place_baseline(name, 0.01, params.size)
    for i in range(50):
        g = rng_uniform(rng, (257,), -1.0, 1.0) * 10.0 ** (i % 5 - 2)
        assert stepper.step(params, g) is params
        expected = reference(expected, g)
        assert np.array_equal(params, expected), f"step {i + 1}"


def test_sgd_zero_lr_is_identity():
    p = np.array([1.0, 2.0])
    out = make_baseline("sgd", 0.0, 2).step(p.copy(), np.array([3.0, -1.0]))
    assert np.array_equal(out, p)


def test_sgd_by_hand_and_axpy_equivalence():
    p = np.array([1.0, 1.0])
    g = np.array([1.0, 4.0])
    out = make_baseline("sgd", 0.1, 2).step(p.copy(), g)
    assert np.allclose(out, [0.9, 0.6], atol=1e-15)
    assert np.array_equal(out, p - 0.1 * g)
    assert np.array_equal(out, p + -0.1 * g)  # the axpy form y + alpha*x


def test_sgd_rejects_nonfinite_grad():
    for name in BASELINES:
        stepper = make_baseline(name, 0.1, 2)
        p = np.zeros(2)
        with pytest.raises(NonFiniteError):
            stepper.step(p, np.array([np.nan, 0.0]))
        assert not p.any()  # a rejected gradient leaves params untouched


def test_momentum_two_step_displacement():
    # constant gradient: v goes 1, 1.9 -> total step -0.1*(1 + 1.9)
    p = np.array([0.0])
    g = np.array([1.0])
    stepper = make_baseline("sgd-m", 0.1, 1)
    stepper.step(p, g)
    stepper.step(p, g)
    assert abs(p[0] + 0.29) < 1e-15


def test_nag_lookahead_form():
    # one step from rest: v = g, update -lr*(g + mu*v)
    g = np.array([2.0])
    p = make_baseline("sgd-nag", 0.1, 1).step(np.zeros(1), g)
    assert abs(p[0] - (-0.1 * (2.0 + 0.9 * 2.0))) < 1e-15


def test_adagrad_hand_unrolled():
    p = np.array([0.0])
    g = np.array([3.0])
    stepper = make_baseline("adagrad", 1.0, 1)
    stepper.step(p, g)
    first = 3.0 / (3.0 + 1e-8)  # -3/(sqrt(9) + eps)
    assert abs(p[0] + first) < 1e-15
    stepper.step(p, g)
    assert abs((p[0] + first) + 3.0 / (math.sqrt(18.0) + 1e-8)) < 1e-15


def test_rmsprop_zero_decay_is_signlike():
    # from a zero accumulator the first step divides g by sqrt(0.1)*|g| + eps
    g = np.array([0.4, -2.0])
    p = make_baseline("rmsprop", 0.1, 2).step(np.zeros(2), g)
    expected = -0.1 * g / (math.sqrt(0.1) * np.abs(g) + 1e-8)
    assert np.allclose(p, expected, atol=1e-15)


def test_adam_first_step_is_signlike():
    g = np.array([0.003, -7.0, 0.5])
    stepper = make_baseline("adam", 0.01, 3)
    p = stepper.step(np.zeros(3), g)
    assert stepper.t == 1
    assert np.allclose(p, -0.01 * np.sign(g), rtol=1e-4)


def test_adam_counter_strictly_increases():
    stepper = make_baseline("adam", 0.001, 1)
    p = np.zeros(1)
    for expected_t in (1, 2, 3):
        stepper.step(p, np.ones(1))
        assert stepper.t == expected_t


def test_make_baseline_rejects_unknown():
    with pytest.raises(ValueError):
        make_baseline("newton", 0.1, 4)


@pytest.mark.parametrize("name,lr", [("sgd", -0.1), ("adam", math.nan)], ids=["lr<0", "lr=nan"])
def test_make_baseline_rejects_bad_hyperparameters(name, lr):
    with pytest.raises(ValueError):
        make_baseline(name, lr, 4)


def test_baselines_preserve_shape():
    rng = Rng(77)
    g = rng_uniform(rng, (11,), -1.0, 1.0)
    p = rng_uniform(rng, (11,), -1.0, 1.0)
    for name in BASELINES:
        out = make_baseline(name, 0.01, 11).step(p, g)
        assert out.shape == p.shape


# --- coefficient estimation ---------------------------------------------------


def quadratic_probe_1d(theta, g):
    """Probe for loss(t) = t^2/2 evaluated directly at theta - s*g."""

    def probe(s):
        t = theta - s * g
        return 0.5 * t * t

    return probe


def test_estimate_on_one_dimensional_quadratic_by_hand():
    # loss = theta^2/2 at theta=2: probes at 1.8 and 2.2 give 1.62 and 2.42
    probe = quadratic_probe_1d(2.0, 2.0)
    a, b = lqa_estimate_coefficients(2.0, probe, 0.1)
    assert abs(a - 4.0) < 1e-12
    assert abs(b - 2.0) < 1e-9
    rate, _ = lqa_solve(a, b, LqaState(delta0=0.1))
    assert abs(rate - 1.0) < 1e-9
    # stepping lands exactly on the minimum
    assert abs(2.0 - rate * 2.0) < 1e-9


def test_estimate_zero_direction_sees_flat_probe():
    probe = quadratic_probe_1d(2.0, 0.0)
    a, b = lqa_estimate_coefficients(2.0, probe, 0.1)
    assert a == 0.0
    assert b == 0.0
    rate, verdict = lqa_solve(a, b, LqaState(delta0=0.1))
    assert rate == 0.1  # keeps the probe rate
    assert verdict is Verdict.SKIPPED_ZERO_GRAD


def test_estimate_rejects_nonpositive_delta0():
    with pytest.raises(ValueError):
        lqa_estimate_coefficients(1.0, lambda s: 1.0, 0.0)


def test_estimate_accepts_delta0_outside_default_clamp_box():
    # any positive probe radius is legal for estimation alone
    probe = quadratic_probe_1d(2.0, 2.0)
    a, _ = lqa_estimate_coefficients(probe(0.0), probe, 20.0)
    assert abs(a - 4.0) < 1e-10
    a, _ = lqa_estimate_coefficients(probe(0.0), probe, 1e-8)
    assert abs(a - 4.0) < 1e-5


def test_estimate_surfaces_nonfinite_probe():
    with pytest.raises(NonFiniteError):
        lqa_estimate_coefficients(1.0, lambda s: math.inf, 0.1)


def test_solve_verdicts():
    state = LqaState(delta0=0.01, delta_min=1e-6, delta_max=10.0)
    d, v = lqa_solve(4.0, 2.0, state)
    assert (d, v) == (1.0, Verdict.ACCEPTED)
    d, v = lqa_solve(1.0, 1e-15, state)
    assert (d, v) == (0.01, Verdict.FALLBACK_SMALL_B)
    d, v = lqa_solve(-0.3, 2.0, state)
    assert (d, v) == (0.01, Verdict.FALLBACK_NONPOSITIVE_A)
    d, v = lqa_solve(50.0, 1e-3, state)
    assert (d, v) == (10.0, Verdict.CLAMPED)  # 25000 clipped to delta_max
    d, v = lqa_solve(1e-9, 1000.0, state)
    assert (d, v) == (1e-6, Verdict.CLAMPED)  # 5e-13 clipped to delta_min
    with pytest.raises(NonFiniteError):
        lqa_solve(math.nan, 1.0, state)


def test_state_validation():
    with pytest.raises(ValueError):
        LqaState(delta0=0.0)
    with pytest.raises(ValueError):
        LqaState(delta0=0.01, delta_min=0.1, delta_max=10.0)
    with pytest.raises(ValueError):
        LqaState(b_min=0.0)


# --- the full step -------------------------------------------------------------


def test_step_on_diagonal_quadratic_matches_derived_values():
    A = np.diag([1.0, 4.0])
    theta = np.array([1.0, 1.0])
    g = A @ theta  # (1, 4)

    def probe(s):
        t = theta - s * g
        return 0.5 * float(t @ (A @ t))

    state = LqaState(delta0=0.1)
    a, b = lqa_estimate_coefficients(probe(0.0), probe, 0.1)
    assert abs(a - 17.0) < 1e-9
    assert abs(b - 32.5) < 1e-7
    assert lqa_step(theta, g, probe(0.0), probe, state) is theta
    assert state.last_verdict is Verdict.ACCEPTED
    assert abs(state.delta0 - 17.0 / 65.0) < 1e-9
    assert np.allclose(theta, [48.0 / 65.0, -3.0 / 65.0], atol=1e-8)


def test_step_stores_rate_on_passed_state_and_chains_delta0():
    theta = np.array([2.0])
    g = np.array([2.0])
    state = LqaState(delta0=0.1)
    seen = []

    def probe(s):
        seen.append(s)
        t = theta - s * g
        return 0.5 * float(t @ t)

    lqa_step(theta, g, probe(0.0), probe, state)
    # the exact line minimum of 0.5*t^2 from t = 2 along g = 2 is s = 1
    assert abs(state.delta0 - 1.0) < 1e-9 and state.last_verdict is Verdict.ACCEPTED
    assert seen == [0.0, -0.1, 0.1]

    # second step probes at the first step's solved rate
    g2 = theta.copy()
    seen.clear()

    def probe2(s):
        seen.append(s)
        t = theta - s * g2
        return 0.5 * float(t @ t)

    solved = state.delta0
    lqa_step(theta, g2, probe2(0.0), probe2, state)
    assert seen == [0.0, -solved, solved]


def test_step_zero_grad_is_noop_with_verdict():
    theta = np.array([1.0, -2.0])
    probe = lambda s: 3.5  # flat: zero direction scales nothing
    state = LqaState(delta0=0.02)
    assert lqa_step(theta, np.zeros(2), 3.5, probe, state) is theta
    assert np.array_equal(theta, [1.0, -2.0])
    assert state.last_verdict is Verdict.SKIPPED_ZERO_GRAD
    assert state.delta0 == 0.02


def test_step_rejects_nonfinite():
    cases = (
        (np.array([np.inf, 0.0]), 1.0, lambda s: 1.0),  # gradient
        (np.ones(2), 1.0, lambda s: math.nan),  # probe loss
        (np.ones(2), math.nan, lambda s: 1.0),  # loss at params
    )
    for grad, loss0, probe in cases:
        params, state = np.zeros(2), LqaState()
        with pytest.raises(NonFiniteError):
            lqa_step(params, grad, loss0, probe, state)
        # rejected before anything was written
        assert np.array_equal(params, np.zeros(2))
        assert state == LqaState()


def test_in_place_step_matches_out_of_place_reference_bitwise():
    q = synthetic_quadratic(8, 4)
    theta = rng_uniform(Rng(7), (8,), -1.0, 1.0)
    ref, ref_state = theta.copy(), LqaState()
    state = LqaState()
    for _ in range(20):
        loss, grad = quad_loss_grad(q, ref)
        probe = ray_probe(q, ref, grad)
        rate, verdict = lqa_solve(*lqa_estimate_coefficients(loss, probe, ref_state.delta0), ref_state)
        ref = ref - rate * grad
        ref_state = replace(ref_state, delta0=rate, last_verdict=verdict)

        loss, grad = quad_loss_grad(q, theta)
        assert lqa_step(theta, grad, loss, ray_probe(q, theta, grad), state) is theta
        assert theta.tobytes() == ref.tobytes()
        assert state == ref_state


# --- quadratic exactness against the explicit-Hessian oracle -------------------


@pytest.mark.parametrize("dim,seed", [(2, 0), (5, 1), (20, 2)])
def test_coefficients_independent_of_delta0_and_match_analytic(dim, seed):
    q = synthetic_quadratic(dim, seed)
    theta = rng_uniform(Rng(seed + 100), (dim,), -1.0, 1.0)
    loss0, grad = quad_loss_grad(q, theta)
    a_exact = float(grad @ grad)  # direction is the gradient itself
    b_exact = 0.5 * float(grad @ (q.A @ grad))
    expected_rate = quad_optimal_step(q, theta, grad)
    probe = ray_probe(q, theta, grad)
    for d0 in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        a, b = lqa_estimate_coefficients(loss0, probe, d0)
        assert abs(a - a_exact) <= 1e-9 * abs(a_exact)
        assert abs(b - b_exact) <= 1e-9 * abs(b_exact)
        state = LqaState(delta0=d0, delta_min=1e-9, delta_max=1e9)
        lqa_step(theta.copy(), grad, loss0, probe, state)
        assert abs(state.delta0 - expected_rate) <= 1e-9 * abs(expected_rate)


def test_first_coefficient_identity_on_logreg_batch():
    # a -> dot(g, g) with O(delta0^2) error: halving shrinks it ~4x
    rng = Rng(5)
    model = nn.build_logreg(10, 4)
    params = nn.init_params(model, rng)
    x = rng_uniform(rng, (32, 10), -1.0, 1.0)
    y = np.minimum((rng.uniform(32) * 4).astype(np.int64), 3)
    batch = Batch(np.arange(32), x, y)
    loss0, grad = nn.backward(model, batch, params)
    gg = float(grad @ grad)
    errors = []
    for d0 in (1e-2, 5e-3, 2.5e-3):
        probe = nn.make_loss_probe(model, batch, params, grad)
        a, _ = lqa_estimate_coefficients(loss0, probe, d0)
        errors.append(abs(a - gg))
    assert errors[0] / gg < 1e-3
    assert 3.0 < errors[0] / errors[1] < 5.0
    assert 3.0 < errors[1] / errors[2] < 5.0


def test_full_batch_quadratic_descent_is_monotone():
    q = synthetic_quadratic(12, 9)
    theta = rng_uniform(Rng(3), (12,), -1.0, 1.0)
    state = LqaState(delta0=0.01)
    losses = []
    for _ in range(30):
        loss, grad = quad_loss_grad(q, theta)
        losses.append(loss)
        lqa_step(theta, grad, loss, ray_probe(q, theta, grad), state)
        assert state.last_verdict in (Verdict.ACCEPTED, Verdict.CLAMPED)
    final, _ = quad_loss_grad(q, theta)
    losses.append(final)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_state_replace_keeps_invariants():
    state = LqaState(delta0=0.5)
    bumped = replace(state, delta0=1.0, last_verdict=Verdict.ACCEPTED)
    assert bumped.delta0 == 1.0 and state.delta0 == 0.5
