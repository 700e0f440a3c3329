import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lqa import nn
from lqa.data import Batch, synthetic_quadratic
from lqa.optim import (
    BASELINES,
    BLOCK,
    LqaState,
    Verdict,
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
        # Adam with acc = m/(1-beta1) and second = v/(1-beta2), both bias
        # corrections folded into the rate and eps (textbook_adam is the plain form)
        t += 1
        scale = math.sqrt((1.0 - beta2**t) / (1.0 - beta2))
        lr_t = lr * (1.0 - beta1) / (1.0 - beta1**t) * scale
        acc = beta1 * acc + g
        second = beta2 * second + g * g
        return p - acc / (np.sqrt(second) + eps * scale) * lr_t

    return step


def textbook_adam(lr, dim, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba's Adam as written (arXiv 1412.6980, Algorithm 1), out of place."""
    m, v, t = np.zeros(dim), np.zeros(dim), 0

    def step(p, g):
        nonlocal m, v, t
        t += 1
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
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


@pytest.mark.parametrize("name", BASELINES)
def test_step_spanning_blocks_matches_out_of_place_recurrence_bitwise(name):
    # two full blocks and a ragged third, so the update's block loop is exercised
    dim, rng = 2 * BLOCK + 7, Rng(43)
    params = rng_uniform(rng, (dim,), -1.0, 1.0)
    expected = params.copy()
    stepper = make_baseline(name, 0.01, dim)
    reference = out_of_place_baseline(name, 0.01, dim)
    for i in range(5):
        g = rng_uniform(rng, (dim,), -1.0, 1.0) * 10.0 ** (i - 2)
        assert stepper.step(params, g) is params
        expected = reference(expected, g)
        assert params.tobytes() == expected.tobytes(), f"step {i + 1}"


def test_adam_stays_within_rounding_of_the_textbook_recurrence():
    # the folded form reorders the arithmetic, so it matches the textbook
    # form to rounding only; gradients span 1e-2 to 1e2, as above
    rng = Rng(47)
    params = rng_uniform(rng, (257,), -1.0, 1.0)
    start, expected = params.copy(), params.copy()
    stepper = make_baseline("adam", 0.01, params.size)
    reference = textbook_adam(0.01, params.size)
    for i in range(50):
        g = rng_uniform(rng, (257,), -1.0, 1.0) * 10.0 ** (i % 5 - 2)
        stepper.step(params, g)
        expected = reference(expected, g)
        assert np.max(np.abs(params - expected)) < 1e-12, f"step {i + 1}"
    assert np.max(np.abs(params - start)) > 0.1  # 50 steps of about lr each


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


@pytest.mark.parametrize(
    "name,lr", [("sgd", -0.1), ("adam", math.nan), ("sgd", math.inf)], ids=["lr<0", "lr=nan", "lr=inf"]
)
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


# --- the fit and the rate -------------------------------------------------------


def quadratic_probe_1d(theta, g):
    """Probe for loss(t) = t^2/2 evaluated directly at theta - s*g."""

    def probe(s):
        t = theta - s * g
        return 0.5 * t * t

    return probe


def test_estimate_on_one_dimensional_quadratic_by_hand():
    # loss = theta^2/2 at theta=2: probes at 1.8 and 2.2 give 1.62 and 2.42
    theta, state = np.array([2.0]), LqaState(delta0=0.1)
    lqa_step(theta, np.array([2.0]), 2.0, quadratic_probe_1d(2.0, 2.0), state)
    assert abs(state.a - 4.0) < 1e-12
    assert abs(state.b - 2.0) < 1e-9
    assert abs(state.delta0 - 1.0) < 1e-9
    # stepping lands exactly on the minimum
    assert abs(theta[0]) < 1e-9


def test_estimate_zero_direction_sees_flat_probe():
    state = LqaState(delta0=0.1)
    lqa_step(np.array([2.0]), np.zeros(1), 2.0, quadratic_probe_1d(2.0, 0.0), state)
    assert state.a == 0.0
    assert state.b == 0.0
    assert state.delta0 == 0.1  # keeps the probe rate
    assert state.last_verdict is Verdict.SKIPPED_ZERO_GRAD


def test_estimate_surfaces_nonfinite_probe():
    with pytest.raises(NonFiniteError):
        lqa_step(np.zeros(1), np.ones(1), 1.0, lambda s: math.inf, LqaState(delta0=0.1))


def line_probe(a, b):
    """A probe whose loss along the ray is 1 - a*s + b*s^2, so loss0 = 1."""
    return lambda s: 1.0 - a * s + b * s * s


def test_solve_verdicts():
    # at d = 0.5 the (4, 2) fit is exact: probes 3.5 and -0.5 around loss0 = 1
    rows = (
        (4.0, 2.0, 1.0, Verdict.ACCEPTED),
        (1.0, 1e-15, 0.5, Verdict.FALLBACK_SMALL_B),
        (-0.3, 2.0, 0.5, Verdict.FALLBACK_NONPOSITIVE_A),
        (50.0, 1e-3, 10.0, Verdict.CLAMPED),  # 25000 clipped to delta_max
        (1e-9, 1000.0, 1e-6, Verdict.CLAMPED),  # 5e-13 clipped to delta_min
    )
    for a, b, rate, verdict in rows:
        state = LqaState(delta0=0.5)
        lqa_step(np.zeros(1), np.ones(1), 1.0, line_probe(a, b), state)
        assert (state.delta0, state.last_verdict) == (rate, verdict), (a, b)
        if verdict is Verdict.ACCEPTED:
            assert (state.a, state.b) == (a, b)
    with pytest.raises(NonFiniteError):
        lqa_step(np.zeros(1), np.ones(1), 1.0, line_probe(math.nan, 1.0), LqaState(delta0=0.5))


def test_state_validation():
    for bad in (0.0, 5e-7, 10.5, math.nan):
        with pytest.raises(ValueError):
            LqaState(delta0=bad)
    # the box's edges are legal rates
    assert LqaState(delta0=1e-6).delta0 == 1e-6 and LqaState(delta0=10.0).delta0 == 10.0
    # the box and the curvature floor are constants, not settings
    with pytest.raises(TypeError):
        LqaState(delta_max=1e9)


def test_fit_is_an_output_not_a_setting():
    with pytest.raises(TypeError):
        LqaState(a=1.0)
    with pytest.raises(TypeError):
        LqaState(last_verdict=Verdict.ACCEPTED)
    state = LqaState()
    assert (state.a, state.b, state.last_verdict) == (None, None, None)


# --- the full step -------------------------------------------------------------


def test_step_on_diagonal_quadratic_matches_derived_values():
    A = np.diag([1.0, 4.0])
    theta = np.array([1.0, 1.0])
    g = A @ theta  # (1, 4)

    def probe(s):
        t = theta - s * g
        return 0.5 * float(t @ (A @ t))

    state = LqaState(delta0=0.1)
    assert lqa_step(theta, g, probe(0.0), probe, state) is theta
    assert abs(state.a - 17.0) < 1e-9
    assert abs(state.b - 32.5) < 1e-7
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
        (np.ones(2), 1.0, lambda s: 1e308 if s < 0 else -1e308),  # a overflows
    )
    for grad, loss0, probe in cases:
        params, state = np.zeros(2), LqaState()
        with pytest.raises(NonFiniteError):
            lqa_step(params, grad, loss0, probe, state)
        # rejected before anything was written
        assert np.array_equal(params, np.zeros(2))
        assert state == LqaState()


def test_step_rejects_nonfinite_update_and_keeps_its_state():
    # a = 4, b = 2 at d = 0.5 give rate 1, and 1e308 + 1e308 overflows
    params, state = np.array([1e308]), LqaState(delta0=0.5)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="update"):
        lqa_step(params, np.array([-1e308]), 1.0, line_probe(4.0, 2.0), state)
    assert state == LqaState(delta0=0.5)


def out_of_place_lqa_step(p, g, loss0, probe, d):
    """The LQA step written from its formulas: (new params, rate, verdict, a, b).

    This is the reference the in-place lqa_step must match bit for bit, so
    every expression keeps the evaluation order written here.
    """
    up, down = probe(-d), probe(d)
    a = (up - down) / (2.0 * d)
    b = (up + down - 2.0 * loss0) / (2.0 * d * d)
    if a == 0.0 and b == 0.0:
        rate, verdict = d, Verdict.SKIPPED_ZERO_GRAD
    elif a <= 0.0:
        rate, verdict = d, Verdict.FALLBACK_NONPOSITIVE_A
    elif b < 1e-12:
        rate, verdict = d, Verdict.FALLBACK_SMALL_B
    else:
        raw = a / (2.0 * b)
        rate = min(max(raw, 1e-6), 10.0)
        verdict = Verdict.ACCEPTED if rate == raw else Verdict.CLAMPED
    return p - rate * g, rate, verdict, a, b


def test_in_place_step_matches_out_of_place_reference_bitwise():
    q = synthetic_quadratic(8, 4)
    theta = rng_uniform(Rng(7), (8,), -1.0, 1.0)
    ref, d = theta.copy(), 0.01
    state = LqaState()
    for _ in range(20):
        loss, grad = quad_loss_grad(q, ref)
        ref, d, verdict, a, b = out_of_place_lqa_step(ref, grad, loss, ray_probe(q, ref, grad), d)

        loss, grad = quad_loss_grad(q, theta)
        assert lqa_step(theta, grad, loss, ray_probe(q, theta, grad), state) is theta
        assert theta.tobytes() == ref.tobytes()
        assert (state.delta0, state.last_verdict, state.a, state.b) == (d, verdict, a, b)


def test_step_spanning_blocks_matches_out_of_place_reference_bitwise():
    # a diagonal quadratic 0.5 * sum(h * theta^2) over two full blocks and a
    # ragged third; a dense Hessian of that size would not fit the suite
    dim, rng = 2 * BLOCK + 7, Rng(9)
    h = rng_uniform(rng, (dim,), 0.1, 10.0)
    theta = rng_uniform(rng, (dim,), -1.0, 1.0)
    ref, d = theta.copy(), 0.01
    state = LqaState()

    def loss_grad_probe(t):
        g = h * t
        return 0.5 * float(h @ (t * t)), g, lambda s: 0.5 * float(h @ ((t - s * g) ** 2))

    for _ in range(5):
        loss, grad, probe = loss_grad_probe(ref)
        ref, d, verdict, a, b = out_of_place_lqa_step(ref, grad, loss, probe, d)

        loss, grad, probe = loss_grad_probe(theta)
        assert lqa_step(theta, grad, loss, probe, state) is theta
        assert theta.tobytes() == ref.tobytes()
        assert (state.delta0, state.last_verdict, state.a, state.b) == (d, verdict, a, b)


def _traced_peak(call):
    """The peak bytes tracemalloc (which numpy reports its buffers to) sees during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["sgd", "sgd-m", "adam", "lqa"])
def test_step_allocates_no_parameter_sized_temporary(name):
    # one whole-vector temporary would take all of the parameters' bytes;
    # a step's temporaries are one block each, an eighth of them here
    dim, rng = 8 * BLOCK + 5, Rng(5)
    params = rng_uniform(rng, (dim,), -1.0, 1.0)
    grad = rng_uniform(rng, (dim,), -1.0, 1.0)
    if name == "lqa":
        state = LqaState()
        step = lambda: lqa_step(params, grad, 1.0, line_probe(4.0, 2.0), state)
    else:
        stepper = make_baseline(name, 0.01, dim)
        step = lambda: stepper.step(params, grad)
    assert _traced_peak(step) < params.nbytes / 4


@pytest.mark.parametrize("name", ["sgd-nag", "adagrad", "rmsprop", "adam"])
def test_work_vector_steps_allocate_no_block(name):
    # these updates write every intermediate into their work vectors, so a
    # step's peak is the gradient scan's one-byte-per-float mask (a quarter of
    # a block here), freed before the update, plus far less than one block
    dim, rng = 2 * BLOCK + 7, Rng(6)
    params = rng_uniform(rng, (dim,), -1.0, 1.0)
    grad = rng_uniform(rng, (dim,), -1.0, 1.0)
    stepper = make_baseline(name, 0.01, dim)
    assert _traced_peak(lambda: stepper.step(params, grad)) < dim + 8 * BLOCK / 4


@pytest.mark.parametrize("name, blocks", [("sgd-nag", 1), ("adagrad", 2), ("rmsprop", 2)])
def test_baseline_holds_one_parameter_sized_vector_and_its_work_blocks(name, blocks):
    dim = 8 * BLOCK + 5
    # the accumulator plus the work blocks; the slack covers the array and
    # object headers, far less than another block
    bound = 8 * (dim + blocks * BLOCK) + 4096
    assert _traced_peak(lambda: make_baseline(name, 0.01, dim)) <= bound


def test_adam_holds_two_parameter_sized_vectors_and_one_block():
    dim = 8 * BLOCK + 5
    # the two moments plus one block of scratch; the slack covers the array
    # and object headers, far less than a second block
    bound = 8 * (2 * dim + BLOCK) + 4096
    assert _traced_peak(lambda: make_baseline("adam", 0.01, dim)) <= bound


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
        state = LqaState(delta0=d0)
        lqa_step(theta.copy(), grad, loss0, probe, state)
        assert abs(state.a - a_exact) <= 1e-9 * abs(a_exact)
        assert abs(state.b - b_exact) <= 1e-9 * abs(b_exact)
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
        state = LqaState(delta0=d0)
        probe = nn.make_loss_probe(model, batch, params, grad)
        lqa_step(params.copy(), grad, loss0, probe, state)
        errors.append(abs(state.a - gg))
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
    bumped = replace(state, delta0=1.0)
    assert bumped.delta0 == 1.0 and state.delta0 == 0.5
