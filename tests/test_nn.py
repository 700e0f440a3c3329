import math
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from lqa import nn
from lqa.data import Batch
from lqa.oracle import finite_diff_grad
from lqa.tensor import NonFiniteError, Rng, rng_uniform


def toy_batch(rng, n, input_shape, classes):
    x = rng_uniform(rng, (n, *input_shape), -1.0, 1.0)
    y = np.minimum((rng.uniform(n) * classes).astype(np.int64), classes - 1)
    return Batch(np.arange(n), x, y)


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a).ravel(), np.asarray(b).ravel()
    return float((np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)).max())


# --- loss head -------------------------------------------------------------


def test_zero_params_logreg_gives_log10():
    model = nn.build_logreg(784, 10)
    batch = toy_batch(Rng(0), 16, (784,), 10)
    loss = nn.forward_loss(model, batch, np.zeros(model.param_count))
    assert abs(loss - math.log(10.0)) < 1e-12


def test_perfect_prediction_gives_zero_loss():
    # bias pins the true-class logit 100 above the rest; input is zero
    model = nn.build_logreg(2, 3)
    params = np.zeros(model.param_count)
    params[2 * 3] = 100.0  # bias of class 0
    batch = Batch(np.array([0]), np.zeros((1, 2)), np.array([0]))
    assert nn.forward_loss(model, batch, params) == 0.0


def test_loss_matches_hand_softmax_on_fixed_logits():
    # one-hot inputs route chosen logit rows through a Dense(2, 3)
    logits = np.array([[0.2, -1.0, 0.5], [1.5, 0.3, -0.7]])
    model = nn.build_logreg(2, 3)
    params = np.concatenate([logits.ravel(), np.zeros(3)])
    labels = np.array([2, 0])
    batch = Batch(np.arange(2), np.eye(2), labels)

    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -0.5 * (math.log(p[0, 2]) + math.log(p[1, 0]))
    assert abs(nn.forward_loss(model, batch, params) - expected) < 1e-12


def test_loss_head_rows_sum_to_zero_and_loss_nonnegative():
    rng = Rng(12)
    logits = rng_uniform(rng, (8, 5), -3.0, 3.0)
    labels = (rng.uniform(8) * 5).astype(np.int64)
    loss, dlogits = nn.softmax_cross_entropy(logits, labels)
    assert loss >= 0.0
    assert np.abs(dlogits.sum(axis=1)).max() < 1e-15


def test_forward_loss_is_parameter_pure():
    model = nn.build_mlp(6, 4, 3)
    rng = Rng(3)
    params = nn.init_params(model, rng)
    batch = toy_batch(rng, 5, (6,), 3)
    before = params.copy()
    assert nn.forward_loss(model, batch, params) == nn.forward_loss(model, batch, params)
    assert np.array_equal(params, before)


def test_empty_batch_rejected():
    model = nn.build_logreg(4, 2)
    batch = Batch(np.array([], dtype=np.int64), np.zeros((0, 4)), np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        nn.forward_loss(model, batch, np.zeros(model.param_count))


def test_param_length_mismatch_rejected():
    model = nn.build_logreg(4, 2)
    with pytest.raises(ValueError):
        model.bind(np.zeros(3))
    with pytest.raises(ValueError):
        model.bind(np.zeros(model.param_count), np.zeros(3))


def test_conv_rejects_wrong_channels_and_inputs_smaller_than_its_kernel():
    layer = nn.Conv2d(2, 3, 3)
    nn.Model([layer], (2, 5, 5)).bind(np.zeros(3 * 2 * 3 * 3 + 3))
    with pytest.raises(ValueError, match="expected 2 input channels, got 1"):
        layer.forward(np.zeros((1, 1, 5, 5)))
    for h, w in ((2, 5), (5, 2)):
        with pytest.raises(ValueError, match=f"input {h}x{w} smaller than kernel 3x3"):
            layer.forward(np.zeros((1, 2, h, w)))
    assert layer.forward(np.zeros((1, 2, 3, 3))).shape == (1, 3, 1, 1)


@pytest.mark.parametrize("h, w", [(3, 4), (4, 5), (1, 1)])
def test_maxpool_rejects_odd_extents(h, w):
    with pytest.raises(ValueError, match=f"even spatial extents, got {h}x{w}"):
        nn.MaxPool2().forward(np.zeros((1, 1, h, w)))


# --- backward --------------------------------------------------------------


def test_gradient_zero_at_constructed_stationary_point():
    # symmetric 4-sample batch makes zero params a stationary point
    model = nn.build_logreg(1, 2)
    x = np.array([[1.0], [-1.0], [-1.0], [1.0]])
    y = np.array([0, 1, 0, 1])
    batch = Batch(np.arange(4), x, y)
    _, grad = nn.backward(model, batch, np.zeros(model.param_count))
    assert np.array_equal(grad, np.zeros(model.param_count))


def test_logreg_gradient_matches_closed_form():
    rng = Rng(7)
    x = rng_uniform(rng, (2, 3), -1.0, 1.0)
    y = np.array([1, 0])
    model = nn.build_logreg(3, 2)
    params = nn.init_params(model, rng)
    _, grad = nn.backward(model, batch := Batch(np.arange(2), x, y), params)

    W = params[:6].reshape(3, 2)
    b = params[6:]
    logits = x @ W + b
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    onehot = np.eye(2)[y]
    gW = x.T @ (p - onehot) / 2.0
    gb = (p - onehot).sum(axis=0) / 2.0
    assert rel_err(grad, np.concatenate([gW.ravel(), gb])) < 1e-10
    assert nn.forward_loss(model, batch, params) > 0.0


@pytest.mark.parametrize(
    "factory,x_shape",
    [
        (lambda: nn.Dense(6, 4), (3, 6)),
        (lambda: nn.Relu(), (3, 5)),
        (lambda: nn.Conv2d(2, 3, 3), (2, 2, 6, 6)),
        (lambda: nn.MaxPool2(), (2, 3, 4, 4)),
        (lambda: nn.SpatialZeroPad(2), (2, 1, 4, 4)),
        (lambda: nn.SpatialZeroPad(0), (2, 1, 4, 4)),
        (lambda: nn.Flatten(), (2, 3, 4, 4)),
    ],
)
def test_layer_backward_matches_finite_differences(factory, x_shape):
    rng = Rng(61)
    layer = factory()
    model = nn.Model([layer], x_shape[1:])
    params = rng_uniform(rng, (model.param_count,), -0.8, 0.8)
    grads = np.zeros_like(params)
    model.bind(params, grads)
    x = rng_uniform(rng, x_shape, -1.0, 1.0)
    readout = rng_uniform(rng, layer.forward(x).shape, -1.0, 1.0)

    def loss_for_input(flat):
        return float(np.sum(readout * layer.forward(flat.reshape(x_shape))))

    layer.forward(x)
    dx = layer.backward(readout.copy())
    fd_x = finite_diff_grad(loss_for_input, x.ravel()).reshape(x_shape)
    assert rel_err(dx, fd_x) < 1e-4

    if model.param_count:
        layer.forward(x)
        layer.backward(readout.copy())
        filled = grads.copy()
        grads[:] = 0.0
        assert layer.backward(readout.copy(), input_grad=False) is None
        assert grads.tobytes() == filled.tobytes()

        def loss_for_params(flat):
            model.bind(flat)
            return float(np.sum(readout * layer.forward(x)))

        fd_p = finite_diff_grad(loss_for_params, params)
        assert rel_err(grads, fd_p) < 1e-4


@pytest.mark.parametrize(
    "window,tied",
    [
        ((5.0, 5.0, 1.0, 2.0), 0),  # within the top row
        ((1.0, 5.0, 5.0, 2.0), 1),  # across the row pair, top right vs bottom left
        ((5.0, 1.0, 2.0, 5.0), 0),  # across the row pair, top left vs bottom right
        ((2.0, 1.0, 5.0, 5.0), 2),  # within the bottom row
        ((5.0, 5.0, 5.0, 5.0), 0),  # four-way
        ((0.0, 0.0, 0.0, 0.0), 0),  # four-way at zero, as after a Relu
    ],
)
def test_pool_tie_routes_gradient_to_first_position(window, tied):
    # one 2x2 window, positions in row-major order
    x = np.array(window).reshape(1, 1, 2, 2)
    pool = nn.MaxPool2()
    out = pool.forward(x)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == max(window)
    dx = pool.backward(np.full((1, 1, 1, 1), 3.0)).ravel()
    expected = np.zeros(4)
    expected[tied] = 3.0
    assert dx.tobytes() == expected.tobytes()  # every other position is exactly +0.0


def test_pool_keeps_no_reference_to_its_input():
    x = rng_uniform(Rng(29), (2, 3, 4, 4), -1.0, 1.0)
    ref = weakref.ref(x)
    pool = nn.MaxPool2()
    pool.forward(x)
    del x
    assert ref() is None


@pytest.mark.parametrize(
    "build,input_shape,classes",
    [
        (lambda: nn.build_logreg(12, 4), (12,), 4),
        (lambda: nn.build_mlp(12, 8, 3), (12,), 3),
        (
            lambda: nn.build_lenet5((1, 16, 16), 3, conv_channels=(2, 3), fc_dims=(6, 5)),
            (1, 16, 16),
            3,
        ),
    ],
)
def test_model_backward_matches_finite_differences(build, input_shape, classes):
    rng = Rng(17)
    model = build()
    params = nn.init_params(model, rng)
    batch = toy_batch(rng, 6, input_shape, classes)
    _, analytic = nn.backward(model, batch, params)
    fd = finite_diff_grad(lambda p: nn.forward_loss(model, batch, p), params)
    assert rel_err(analytic, fd) < 1e-4


def test_lenet5_backward_never_calls_the_layers_before_the_first_conv():
    model = nn.build_lenet5((1, 28, 28), 4, conv_channels=(2, 3), fc_dims=(6, 5))
    assert isinstance(model.layers[0], nn.SpatialZeroPad)
    rng = Rng(37)
    params = nn.init_params(model, rng)
    batch = toy_batch(rng, 3, (1, 28, 28), 4)
    loss, grad = nn.backward(model, batch, params)

    def refuse(dout):
        raise AssertionError("backward ran below the first weighted layer")

    model.layers[0].backward = refuse
    loss2, grad2 = nn.backward(model, batch, params)
    assert loss2 == loss
    assert grad2.tobytes() == grad.tobytes()


def test_backward_returns_a_new_gradient_each_call():
    model = nn.build_mlp(6, 4, 3)
    rng = Rng(19)
    params = nn.init_params(model, rng)
    batch = toy_batch(rng, 5, (6,), 3)
    _, first = nn.backward(model, batch, params)
    kept = first.copy()
    _, second = nn.backward(model, batch, params + 0.5)
    assert not np.shares_memory(first, second)
    assert not np.array_equal(first, second)
    assert first.tobytes() == kept.tobytes()  # the second pass wrote none of its bits
    nn.forward_loss(model, batch, params - 0.5)
    assert first.tobytes() == kept.tobytes()


def test_backward_surfaces_nonfinite_params():
    model = nn.build_logreg(3, 2)
    params = np.zeros(model.param_count)
    params[0] = np.inf
    batch = toy_batch(Rng(0), 2, (3,), 2)
    with pytest.raises(NonFiniteError):
        nn.forward_loss(model, batch, params)
    with pytest.raises(NonFiniteError):
        nn.backward(model, batch, params)


# --- convolution vs the naive loop oracle -----------------------------------


def conv_naive(x, W, b):
    n, cin, h, w = x.shape
    cout, _, k, _ = W.shape
    oh, ow = h - k + 1, w - k + 1
    out = np.zeros((n, cout, oh, ow))
    for im in range(n):
        for f in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = b[f]
                    for c in range(cin):
                        for u in range(k):
                            for v in range(k):
                                acc += x[im, c, i + u, j + v] * W[f, c, u, v]
                    out[im, f, i, j] = acc
    return out


def conv_naive_backward(x, W, dout):
    """(dx, gW) of sum(dout * conv(x)), one output position at a time."""
    _, _, k, _ = W.shape
    n, cout, oh, ow = dout.shape
    dx, gW = np.zeros_like(x), np.zeros_like(W)
    for im in range(n):
        for f in range(cout):
            for i in range(oh):
                for j in range(ow):
                    g = dout[im, f, i, j]
                    dx[im, :, i : i + k, j : j + k] += g * W[f]
                    gW[f] += g * x[im, :, i : i + k, j : j + k]
    return dx, gW


def test_conv_matches_naive_loop_oracle():
    rng = Rng(23)
    layer = nn.Conv2d(1, 2, 3)
    W = rng_uniform(rng, (2, 1, 3, 3), -1.0, 1.0)
    b = rng_uniform(rng, (2,), -0.5, 0.5)
    layer.params = [W, b]
    x = rng_uniform(rng, (1, 1, 6, 6), -1.0, 1.0)
    assert np.allclose(layer.forward(x), conv_naive(x, W, b), rtol=0.0, atol=1e-13)

    # an odd batch, channel count and extent, through backward as well
    layer = nn.Conv2d(2, 3, 3)
    W = rng_uniform(rng, (3, 2, 3, 3), -1.0, 1.0)
    b = rng_uniform(rng, (3,), -0.5, 0.5)
    layer.params = [W, b]
    layer.grads = [np.empty_like(W), np.empty_like(b)]
    x = rng_uniform(rng, (7, 2, 9, 9), -1.0, 1.0)
    dout = rng_uniform(rng, (7, 3, 7, 7), -1.0, 1.0)
    assert np.allclose(layer.forward(x), conv_naive(x, W, b), rtol=0.0, atol=1e-12)
    dx = layer.backward(dout)
    dx_naive, gW_naive = conv_naive_backward(x, W, dout)
    assert np.allclose(dx, dx_naive, rtol=0.0, atol=1e-12)
    assert np.allclose(layer.grads[0], gW_naive, rtol=0.0, atol=1e-12)
    assert np.allclose(layer.grads[1], dout.sum(axis=(0, 2, 3)), rtol=0.0, atol=1e-12)


class RowMajorConv2d(nn.Conv2d):
    """Conv2d with one im2col row per window and NHWC products.

    The bit reference for the channel-major layer: every fixed-clock CSV was
    written with these bits.
    """

    def forward(self, x):
        n, cin, h, w = x.shape
        k = self.k
        oh, ow = h - k + 1, w - k + 1
        windows = sliding_window_view(x, (k, k), axis=(2, 3))
        cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
        cols = cols.reshape(n * oh * ow, cin * k * k)
        W, b = self.params
        out = cols @ W.reshape(self.cout, -1).T + b
        self._cols = cols
        self._xshape = x.shape
        return out.reshape(n, oh, ow, self.cout).transpose(0, 3, 1, 2)

    def backward(self, dout):
        n, cin, h, w = self._xshape
        k = self.k
        _, cout, oh, ow = dout.shape
        W, _ = self.params
        gW, gb = self.grads
        dmat = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, cout)
        np.matmul(dmat.T, self._cols, out=gW.reshape(cout, -1))
        np.sum(dmat, axis=0, out=gb)
        dcols = dmat @ W.reshape(cout, -1)
        dcols = dcols.reshape(n, oh, ow, cin, k, k).transpose(0, 3, 1, 2, 4, 5)
        dx = np.zeros(self._xshape, dtype=np.float64)
        for i in range(k):
            for j in range(k):
                dx[:, :, i : i + oh, j : j + ow] += dcols[:, :, :, :, i, j]
        return dx


def channel_major(a):
    """a's values in (c, n, ...) memory, viewed as (n, c, ...), as the conv layers hand them on."""
    return np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# LeNet-5's convolutions at batch 64. conv2's shape is the same on MNIST and CIFAR.
@pytest.mark.parametrize(
    "x_shape,cout",
    [((64, 1, 32, 32), 6), ((64, 3, 32, 32), 6), ((64, 6, 14, 14), 16)],
    ids=["mnist-conv1", "cifar-conv1", "conv2"],
)
@pytest.mark.parametrize("layout", [np.ascontiguousarray, channel_major], ids=["nchw", "cnhw"])
def test_conv_keeps_the_bits_of_row_major_im2col(x_shape, cout, layout):
    # bits at other batch sizes depend on how BLAS blocks each product's shape
    rng = Rng(41)
    n, cin, side, _ = x_shape
    W = rng_uniform(rng, (cout, cin, 5, 5), -0.3, 0.3)
    b = rng_uniform(rng, (cout,), -0.1, 0.1)
    x = rng_uniform(rng, x_shape, -1.0, 1.0)
    dout = rng_uniform(rng, (n, cout, side - 4, side - 4), -1.0, 1.0)
    results = []
    reference = (RowMajorConv2d(cin, cout), np.ascontiguousarray)
    for layer, feed in (reference, (nn.Conv2d(cin, cout), layout)):
        layer.params = [W, b]
        layer.grads = [np.empty_like(W), np.empty_like(b)]
        out = layer.forward(feed(x))
        dx = layer.backward(feed(dout))
        results.append((out, dx, *layer.grads))
    for name, ref, got in zip(("out", "dx", "gW", "gb"), *results):
        assert got.shape == ref.shape
        assert np.array_equal(bits(got), bits(ref)), name


def test_conv_forward_keeps_one_column_buffer():
    # LeNet-5's conv1 on MNIST at batch 64: 25 rows of 64*28*28 floats, 10 MB
    layer = nn.Conv2d(1, 6, 5)
    rng = Rng(43)
    layer.params = [rng_uniform(rng, (6, 1, 5, 5), -0.3, 0.3), np.zeros(6)]
    x = rng_uniform(rng, (64, 1, 32, 32), 0.0, 1.0)
    cols_nbytes = 25 * 64 * 28 * 28 * 8
    tracemalloc.start()
    try:
        layer.forward(x)
        layer.forward(x)  # the first pass's columns must be gone before these are built
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cols_nbytes


# --- builders ---------------------------------------------------------------


def test_logreg_parameter_count_and_shapes():
    model = nn.build_logreg(784, 10)
    assert model.param_count == 7850
    model.bind(np.zeros(model.param_count))
    assert [p.shape for p in model.layers[0].params] == [(784, 10), (10,)]
    x = np.zeros((64, 784))
    assert model.forward(x).shape == (64, 10)


def test_mlp_parameter_count():
    assert nn.build_mlp(784, 1000, 10).param_count == 1_796_010


def test_mlp_zero_everything_is_uniform():
    model = nn.build_mlp(8, 4, 5)
    batch = Batch(np.arange(2), np.zeros((2, 8)), np.array([0, 3]))
    loss = nn.forward_loss(model, batch, np.zeros(model.param_count))
    assert abs(loss - math.log(5.0)) < 1e-12


def test_lenet5_parameter_count_and_output_shape():
    model = nn.build_lenet5((1, 28, 28), 10)
    # conv1 156, conv2 2416, fc 48120 + 10164 + 850
    assert model.param_count == 61_706
    rng = Rng(2)
    nn.init_params(model, rng)
    x = rng_uniform(rng, (64, 1, 28, 28), 0.0, 1.0)
    assert model.forward(x).shape == (64, 10)


def test_lenet5_cifar_variant_builds():
    model = nn.build_lenet5((3, 32, 32), 10)
    model.bind(np.zeros(model.param_count))
    assert model.forward(np.zeros((2, 3, 32, 32))).shape == (2, 10)


@pytest.mark.parametrize("input_shape", [(1, 28, 28), (3, 32, 32)])
def test_lenet5_layer_sequence(input_shape):
    # perfbench names its per-layer metrics by position in this sequence;
    # each stage pools before its ReLU
    pad = ["SpatialZeroPad"] if input_shape == (1, 28, 28) else []
    assert [type(layer).__name__ for layer in nn.build_lenet5(input_shape).layers] == pad + [
        "Conv2d", "MaxPool2", "Relu", "Conv2d", "MaxPool2", "Relu",
        "Flatten", "Dense", "Relu", "Dense", "Relu", "Dense",
    ]


def test_lenet5_rejects_impossible_extents():
    with pytest.raises(ValueError):
        nn.build_lenet5((1, 9, 9), 10)


def relu_before_pool(layers):
    """The layers with each MaxPool2, Relu pair put back in the order Relu, MaxPool2."""
    layers = list(layers)
    for i, layer in enumerate(layers[:-1]):
        if isinstance(layer, nn.MaxPool2) and isinstance(layers[i + 1], nn.Relu):
            layers[i], layers[i + 1] = layers[i + 1], layer
    return layers


@pytest.mark.parametrize("input_shape", [(1, 28, 28), (3, 32, 32)])
def test_lenet5_stage_order_keeps_the_loss_and_gradient_bits(input_shape):
    pooled_first = nn.build_lenet5(input_shape)
    relu_first = nn.Model(relu_before_pool(nn.build_lenet5(input_shape).layers), input_shape)
    names = [type(layer).__name__ for layer in relu_first.layers]
    assert names[-12:-6] == ["Conv2d", "Relu", "MaxPool2", "Conv2d", "Relu", "MaxPool2"]
    rng = Rng(53)
    params = nn.init_params(pooled_first, rng)
    (conv1, _), (conv2, _) = pooled_first._layout[:2]
    # biases of both signs and exact zeros; on a blank image every window of
    # a conv output holds its bias four times, so ties and zeros are exact
    conv1.params[1][:] = [-0.2, 0.0, 0.1, -0.05, 0.3, 0.0]
    conv2.params[1][:] = rng_uniform(rng, (16,), -0.1, 0.1)
    x = rng_uniform(rng, (8, *input_shape), 0.0, 1.0)
    x[::2] = 0.0
    batch = Batch(np.arange(8), x, np.arange(8))
    (loss, grad), (loss_ref, grad_ref) = (nn.backward(m, batch, params) for m in (pooled_first, relu_first))
    assert loss == loss_ref
    assert grad.tobytes() == grad_ref.tobytes()
    assert np.any(grad[: conv1.params[0].size])  # the pass reached conv1


# --- flat parameter view -----------------------------------------------------


def test_bind_round_trip():
    model = nn.build_mlp(5, 4, 3)
    params = nn.init_params(model, Rng(13))
    assert params.shape == (model.param_count,)
    model.bind(np.zeros_like(params))
    model.bind(params)
    views = [p for layer in model.layers for p in layer.params]
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), params)
    assert all(np.shares_memory(v, params) for v in views)  # views, not copies


def test_single_flat_index_touches_single_weight():
    model = nn.build_logreg(3, 2)  # 8 parameters, exhaustive
    base = rng_uniform(Rng(4), (model.param_count,), -1.0, 1.0)
    for i in range(model.param_count):
        model.bind(base)
        before = [p.copy() for layer in model.layers for p in layer.params]
        bumped = base.copy()
        bumped[i] += 1.0
        model.bind(bumped)
        after = [p for layer in model.layers for p in layer.params]
        changed = sum(int((b != a).sum()) for b, a in zip(before, after))
        assert changed == 1


def test_init_is_seed_deterministic_and_zero_mode_zeroes():
    m1 = nn.build_mlp(6, 4, 3)
    m2 = nn.build_mlp(6, 4, 3)
    p1 = nn.init_params(m1, Rng(5))
    p2 = nn.init_params(m2, Rng(5))
    assert np.array_equal(p1, p2)
    assert not nn.init_params(m1, Rng(5), scheme="zeros").any()
    with pytest.raises(ValueError):
        nn.init_params(m1, Rng(5), scheme="he")


def test_init_bounds_follow_fan_sums():
    # fan_in + fan_out of each weighted layer in order; a conv's fans count
    # its 5x5 kernel once per input and once per output channel
    fc = [400 + 120, 120 + 84, 84 + 10]
    cases = [
        (nn.build_logreg(784, 10), [784 + 10]),
        (nn.build_mlp(784, 1000, 10), [784 + 1000, 1000 + 1000, 1000 + 10]),
        (nn.build_lenet5((1, 28, 28), 10), [(1 + 6) * 25, (6 + 16) * 25, *fc]),
        (nn.build_lenet5((3, 32, 32), 10), [(3 + 6) * 25, (6 + 16) * 25, *fc]),
    ]
    for model, fan_sums in cases:
        nn.init_params(model, Rng(8))
        weighted = [layer for layer in model.layers if layer.param_shapes]
        assert len(weighted) == len(fan_sums)
        for layer, fan_sum in zip(weighted, fan_sums):
            W, b = layer.params
            r = math.sqrt(6.0 / fan_sum)
            assert np.abs(W).max() <= r
            assert np.abs(W).max() > 0.5 * r  # draws actually fill the interval
            assert not b.any()  # biases stay zero


# --- probe -------------------------------------------------------------------


def test_probe_evaluates_every_point_and_leaves_inputs_untouched():
    model = nn.build_logreg(4, 3)
    rng = Rng(9)
    params = nn.init_params(model, rng)
    batch = toy_batch(rng, 8, (4,), 3)
    _, grad = nn.backward(model, batch, params)
    params_before = params.copy()
    grad_before = grad.copy()
    probe = nn.make_loss_probe(model, batch, params, grad)
    shifted = probe(0.05)
    assert probe(0.05) == shifted  # pure: same input, same value
    # the logits are affine along the ray: z0 - s*(x @ G + gb)
    x = np.asarray(batch.inputs, dtype=np.float64)
    W, G = (v[:12].reshape(4, 3) for v in (params, grad))
    b, gb = params[12:], grad[12:]
    z0, zg = x @ W + b, x @ G + gb
    losses = {s: probe(s) for s in (0.05, -0.05)}
    for s, loss in losses.items():
        assert loss == nn.softmax_cross_entropy(z0 - s * zg, batch.labels)[0]
        at_point = nn.forward_loss(model, batch, params - s * grad)
        assert abs(loss - at_point) <= 1e-12 * abs(at_point)
    # the caller's vectors were never touched
    assert params.tobytes() == params_before.tobytes()
    assert grad.tobytes() == grad_before.tobytes()


SMALL_MODELS = {  # (builder, per-sample input shape), three classes each
    "logreg": (lambda: nn.build_logreg(4, 3), (4,)),
    "mlp": (lambda: nn.build_mlp(4, 5, 3), (4,)),
    "lenet5": (lambda: nn.build_lenet5((1, 28, 28), 3, (2, 3), (6, 5)), (1, 28, 28)),
    "lenet5-conv-first": (lambda: nn.build_lenet5((3, 32, 32), 3, (2, 3), (6, 5)), (3, 32, 32)),
}


def gradient_step(name, n=4):
    """A small model, its params, a batch and the gradient pass's gradient."""
    build, input_shape = SMALL_MODELS[name]
    model = build()
    rng = Rng(47)
    params = nn.init_params(model, rng)
    batch = toy_batch(rng, n, input_shape, 3)
    _, grad = nn.backward(model, batch, params)
    return model, params, batch, grad


@pytest.mark.parametrize("name", ["lenet5", "lenet5-conv-first"])
def test_lenet5_probe_keeps_the_bits_of_a_forward_at_the_point(name):
    model, params, batch, grad = gradient_step(name)
    upto_conv1 = model.layers[: 2 if name == "lenet5" else 1]  # the zero pad, if any, and conv1

    def refuse(x):
        raise AssertionError("a probe reran the layers up to conv1")

    for s in (0.05, -0.05):
        probe = nn.make_loss_probe(model, batch, params, grad)
        for layer in upto_conv1:
            layer.forward = refuse
        got = probe(s)
        for layer in upto_conv1:
            del layer.forward
        assert got == nn.forward_loss(model, batch, params - s * grad)
        _, grad = nn.backward(model, batch, params)  # the next probe follows a gradient pass


@pytest.mark.parametrize("name", ["lenet5", "lenet5-conv-first"])
def test_lenet5_probe_builds_no_pooling_code(name):
    model, params, batch, grad = gradient_step(name)
    pools = [layer for layer in model.layers if isinstance(layer, nn.MaxPool2)]
    assert len(pools) == 2

    def refuse(x):
        raise AssertionError("a probe ran MaxPool2.forward, whose code only a backward reads")

    probe = nn.make_loss_probe(model, batch, params, grad)
    for pool in pools:
        pool.forward = refuse
    losses = {s: probe(s) for s in (0.05, -0.05)}
    for pool in pools:
        del pool.forward
    # the probes left nothing that a gradient pass reads
    _, again = nn.backward(model, batch, params)
    assert again.tobytes() == grad.tobytes()
    for s, loss in losses.items():
        assert loss == nn.forward_loss(model, batch, params - s * grad)


@pytest.mark.parametrize("name", ["logreg", "mlp", "lenet5"])
def test_forward_loss_keeps_the_bits_of_the_loss_with_its_gradient(name):
    build, input_shape = SMALL_MODELS[name]
    model = build()
    rng = Rng(59)
    params = 4.0 * nn.init_params(model, rng)  # logits far from uniform
    batch = toy_batch(rng, 6, input_shape, 3)
    model.bind(params)
    logits = model.forward(batch.inputs.reshape(6, *input_shape))
    assert nn.forward_loss(model, batch, params) == nn.softmax_cross_entropy(logits, batch.labels)[0]


@pytest.mark.parametrize("name", ["logreg", "mlp", "lenet5"])
def test_probe_refuses_state_another_forward_left(name):
    model, params, batch, grad = gradient_step(name)
    probe = nn.make_loss_probe(model, batch, params, grad)
    probe_value = probe(0.1)
    # the probe is the ray form of forward_loss, bit for bit
    assert nn.forward_loss(model, batch, params, (grad, 0.1)) == probe_value
    nn.forward_loss(model, batch, params + 1.0)  # the first layer now keeps this pass's state
    with pytest.raises(ValueError):
        probe(0.1)
    with pytest.raises(ValueError):  # nor the ray form it calls
        nn.forward_loss(model, batch, params, (grad, 0.1))
    with pytest.raises(ValueError):  # nor may a probe be built on that state
        nn.make_loss_probe(model, batch, params, grad)
    # another gradient pass at the very same batch and params objects also
    # replaces that state: only a probe built after it may run
    _, grad = nn.backward(model, batch, params)
    probe = nn.make_loss_probe(model, batch, params, grad)
    _, grad = nn.backward(model, batch, params)
    with pytest.raises(ValueError):
        probe(0.1)
    assert nn.make_loss_probe(model, batch, params, grad)(0.1) == probe_value


@pytest.mark.parametrize("name", ["logreg", "mlp", "lenet5"])
def test_probe_refuses_params_or_batch_other_than_the_gradient_pass(name):
    # the layers' kept state is the gradient pass's, at its own batch and
    # params, and a Dense layer's Gram form reads that pass's gradient
    model, params, batch, grad = gradient_step(name)
    other_batch = toy_batch(Rng(48), len(batch.labels), SMALL_MODELS[name][1], 3)
    for p, b, g in ((params.copy(), batch, grad), (params, other_batch, grad), (params, batch, grad.copy())):
        with pytest.raises(ValueError):
            nn.make_loss_probe(model, b, p, g)
        with pytest.raises(ValueError):
            nn.forward_loss(model, b, p, (g, 0.05))
    probe = nn.make_loss_probe(model, batch, params, grad)
    assert probe(0.05) == probe(0.05)
    assert nn.forward_loss(model, batch, params, (grad, 0.05)) == probe(0.05)


@pytest.mark.parametrize("n, gram_layers", [(8, 3), (16, 2)])
def test_dense_probe_along_the_gram_matrix_matches_a_forward_at_the_point(n, gram_layers):
    # 100-400-400-10: at batch 8 every layer takes the Gram form, at batch 16
    # the last, 400x10, runs on its weights moved to the point
    model = nn.build_mlp(100, 400, 10)
    rng = Rng(13)
    params = nn.init_params(model, rng)
    batch = toy_batch(rng, n, (100,), 10)
    _, grad = nn.backward(model, batch, params)
    assert sum(layer.gram_pays() for layer, _ in model._layout) == gram_layers
    values = {}
    for order in ((0.05, -0.05), (-0.05, 0.05)):
        probe = nn.make_loss_probe(model, batch, params, grad)
        got = [probe(s) for s in order + order]
        assert got[:2] == got[2:]  # twice, the same values
        values[order] = dict(zip(order, got))
    assert values[(0.05, -0.05)] == values[(-0.05, 0.05)]  # in either order, the same values
    for s, loss in values[(0.05, -0.05)].items():
        assert math.isfinite(loss)
        at_point = nn.forward_loss(model, batch, params - s * grad)
        assert abs(loss - at_point) <= 1e-12 * abs(at_point)


def test_building_a_probe_allocates_nothing_batch_sized():
    # a baseline run builds a probe every step and never calls it
    model, params, batch, grad = gradient_step("lenet5", n=16)
    cols_nbytes = 25 * 16 * 28 * 28 * 8  # conv1's columns: 1*5*5 rows of 16*28*28
    tracemalloc.start()
    try:
        nn.make_loss_probe(model, batch, params, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cols_nbytes


def traced_peak(fn):
    """Peak bytes that one fn() call allocates; tracemalloc sees numpy's buffers."""
    fn()  # warm-up: a one-time allocation is not a per-step cost
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_and_backward_allocate_no_parameter_sized_temporary():
    # 204,810 parameters against a 2-image batch, so activations stay small
    model = nn.build_mlp(100, 400, 10)
    rng = Rng(12)
    params = nn.init_params(model, rng)
    batch = toy_batch(rng, 2, (100,), 10)
    _, grad = nn.backward(model, batch, params)
    # a gradient pass allocates the gradient it returns, and nothing near its size
    assert traced_peak(lambda: nn.backward(model, batch, params)) / params.nbytes < 1.25
    # built after the last gradient pass, whose state and gradient it starts from
    _, grad = nn.backward(model, batch, params)
    probe = nn.make_loss_probe(model, batch, params, grad)
    assert traced_peak(lambda: probe(0.05)) / params.nbytes < 0.25


def test_a_gradient_pass_holds_one_gradient_once_the_caller_drops_the_last():
    model = nn.build_mlp(100, 400, 10)
    rng = Rng(12)
    params = nn.init_params(model, rng)
    batch = toy_batch(rng, 2, (100,), 10)
    tracemalloc.start()
    try:
        _, grad = nn.backward(model, batch, params)
        probe = nn.make_loss_probe(model, batch, params, grad)
        probe(0.05)
        # neither the layers, nor the model, nor anything a probe left keeps it
        del grad, probe
        tracemalloc.reset_peak()
        nn.backward(model, batch, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / params.nbytes < 1.25
