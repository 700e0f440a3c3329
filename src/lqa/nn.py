"""Layers with explicit forward/backward passes and the three benchmark models.

Every model is a plain sequence of layers topped by a fused softmax
cross-entropy head. A model holds the layout of its parameters, never their
values: each pass binds the layers' weight tensors to reshaped views of the
flat float64 vector it is given, so evaluating the loss at a new vector
copies nothing. A gradient pass binds a fresh gradient vector of the same
layout, which the weighted layers fill in place, and returns it.

Each pass does only the work a caller reads. The gradient pass stops at the
first weighted layer, which fills its parameter gradients but computes no
input gradient, so the layers before it never run backward. MaxPool2 keeps a
small first-max code per window for its backward, not its input. Conv2d lays
its columns, output and input gradient out channel first, so im2col and
col2im run over contiguous memory, and it keeps one column buffer at a time.

The loss probe, which the probe-based optimizer calls twice per batch step,
redoes no work that is the same at every step size. It starts at the first
weighted layer, from what the step's gradient pass left there: Conv2d's
columns, against which it multiplies the probe point's filters, or Dense's
output, which is affine along the gradient ray. The layers before it, which
see only the batch, do not run again. It writes the parameters after that
layer into a scratch vector the caller owns, so probing allocates no
parameter-sized vector. It counts nothing: the training loop counts the
probes the optimizer makes.

Flat ordering is fixed: layers in forward order, then each layer's tensors in
declaration order (weights before bias), each raveled row-major.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import NonFiniteError, rng_uniform

__all__ = [
    "Layer",
    "Dense",
    "Relu",
    "Conv2d",
    "MaxPool2",
    "Flatten",
    "SpatialZeroPad",
    "Model",
    "softmax_cross_entropy",
    "forward_loss",
    "backward",
    "build_logreg",
    "build_mlp",
    "build_lenet5",
    "init_params",
    "make_loss_probe",
]


class Layer:
    """One stage of a model. Model.bind sets params/grads.

    Every layer defines forward(x) and backward(dout), which fills the bound
    grads and returns the gradient with respect to the last forward's input.
    The weighted layers, Dense and Conv2d, set param_shapes and define fans(),
    the (fan_in, fan_out) of their weight tensor that init_params reads. They
    also take `input_grad`: with False they fill grads and return None,
    skipping the input gradient that nobody reads below a model's first
    weighted layer. Their `ray(G, gb)` returns f(s), the output on the last
    forward's input at that forward's weights moved to W - s*G and b - s*gb,
    from what that forward kept; the loss probe reads it.
    """

    param_shapes = ()
    params = grads = ()


class Dense(Layer):
    """Fully connected layer: x @ W + b with W of shape (in, out).

    Forward keeps its input, for backward, and its output, for `ray`. It
    drops the last pass's output before computing the new one: with both
    alive for a moment, an MLP LQA run's peak RSS read about 10 MB higher.
    """

    def __init__(self, in_dim, out_dim):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.param_shapes = ((in_dim, out_dim), (out_dim,))
        self._x = self._out = None

    def fans(self):
        return self.in_dim, self.out_dim

    def forward(self, x):
        self._x = x
        self._out = None  # free the last pass's output before the new one exists
        W, b = self.params
        self._out = x @ W + b
        return self._out

    def ray(self, G, gb):
        """Affine in s: z0 - s*(x @ G + gb), z0 the kept output; x @ G is taken here, once."""
        z0, zg = self._out, self._x @ G + gb
        return lambda s: z0 - s * zg

    def backward(self, dout, input_grad=True):
        W, _ = self.params
        gW, gb = self.grads
        np.matmul(self._x.T, dout, out=gW)
        np.sum(dout, axis=0, out=gb)
        return dout @ W.T if input_grad else None


class Relu(Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x):
        self._mask = x > 0.0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout):
        return np.where(self._mask, dout, 0.0)


class Conv2d(Layer):
    """Valid (unpadded) 2-D convolution, stride 1, square kernel.

    Forward copies the input into channel-major columns (im2col), shape
    (cin*k*k, n*oh*ow), and runs one matrix product against the (cout,
    cin*k*k) filter bank; its output is an (n, cout, oh, ow) view of (cout, n,
    oh, ow) memory. The last pass's columns are dropped before new ones are
    built, so one column buffer is live. Backward adds each kernel offset's
    (cin, n, oh, ow) slab of column gradients, contiguous per channel, into a
    (cin, n, h, w) buffer (col2im); the input gradient is a view of it. Its
    `ray` multiplies the last forward's filters, moved along the ray, against
    the kept columns, with a forward's bits; the output itself is not kept.
    """

    def __init__(self, in_channels, out_channels, kernel=5):
        self.cin = in_channels
        self.cout = out_channels
        self.k = kernel
        self.param_shapes = ((out_channels, in_channels, kernel, kernel), (out_channels,))
        self._cols = None
        self._xshape = None
        self._weights = ()  # the last forward's (W, b), views of the vector it was bound to

    def fans(self):
        return self.cin * self.k * self.k, self.cout * self.k * self.k

    def forward(self, x):
        n, cin, h, w = x.shape
        if cin != self.cin:
            raise ValueError(f"expected {self.cin} input channels, got {cin}")
        k = self.k
        oh, ow = h - k + 1, w - k + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"input {h}x{w} smaller than kernel {k}x{k}")
        self._cols = None  # free the last pass's columns before the new ones exist
        windows = sliding_window_view(x, (k, k), axis=(2, 3))  # (n, cin, oh, ow, k, k)
        self._cols = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3)).reshape(cin * k * k, -1)
        self._xshape = x.shape
        self._weights = self.params
        return self._product(*self._weights)

    def ray(self, G, gb):
        W, b = self._weights
        return lambda s: self._product(W - s * G, b - s * gb)

    def _product(self, W, b):
        """The (n, cout, oh, ow) output of filters W and bias b on the kept columns."""
        n, _, h, w = self._xshape
        k = self.k
        out = W.reshape(self.cout, -1) @ self._cols
        out += b[:, None]
        return out.reshape(self.cout, n, h - k + 1, w - k + 1).transpose(1, 0, 2, 3)

    def backward(self, dout, input_grad=True):
        n, cin, h, w = self._xshape
        k = self.k
        _, cout, oh, ow = dout.shape
        W, _ = self.params
        gW, gb = self.grads
        # (n*oh*ow, cout) rows: with this operand layout gW and gb keep their bits
        dmat = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(-1, cout)
        np.matmul(dmat.T, self._cols.T, out=gW.reshape(cout, -1))
        np.sum(dmat, axis=0, out=gb)
        if not input_grad:
            return None
        dcols = (W.reshape(cout, -1).T @ dmat.T).reshape(cin, k, k, n, oh, ow)
        dx = np.zeros((cin, n, h, w), dtype=np.float64)
        for i in range(k):
            for j in range(k):
                dx[:, :, i : i + oh, j : j + ow] += dcols[:, i, j]
        return dx.transpose(1, 0, 2, 3)


class MaxPool2(Layer):
    """2x2 max pooling with stride 2. Ties break toward the first element.

    Forward takes pairwise maxima of the four strided window views and keeps
    only a uint8 code per window: the row-major position, 0 to 3, of its
    first maximum. Backward routes each output gradient to that position.
    The input itself is not kept, which would raise a LeNet-5 run's peak RSS.
    """

    def __init__(self):
        self._code = None

    def forward(self, x):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial extents, got {h}x{w}")
        win = x.reshape(n, c, h // 2, 2, w // 2, 2)
        x00, x01 = win[:, :, :, 0, :, 0], win[:, :, :, 0, :, 1]
        x10, x11 = win[:, :, :, 1, :, 0], win[:, :, :, 1, :, 1]
        top = np.maximum(x00, x01)
        bottom = np.maximum(x10, x11)
        # a later element wins only when strictly greater, as argmax would pick
        self._code = np.where(top >= bottom, x01 > x00, 2 + (x11 > x10).view(np.uint8))
        return np.maximum(top, bottom)

    def backward(self, dout):
        code = self._code
        n, c, oh, ow = code.shape
        d = np.empty((n, c, oh, 2, ow, 2), dtype=np.float64)
        for pos in range(4):
            d[:, :, :, pos // 2, :, pos % 2] = np.where(code == pos, dout, 0.0)
        return d.reshape(n, c, 2 * oh, 2 * ow)


class Flatten(Layer):
    def __init__(self):
        self._xshape = None

    def forward(self, x):
        self._xshape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._xshape)


class SpatialZeroPad(Layer):
    """Zero-pads the two trailing spatial axes by `pad` on each side."""

    def __init__(self, pad):
        self.pad = pad

    def forward(self, x):
        p = self.pad
        return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))

    def backward(self, dout):
        p = self.pad
        return dout[:, :, p:-p, p:-p].copy()


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer labels under softmax(logits).

    Fused in log space (log-sum-exp with max subtraction). Returns the loss
    and its gradient with respect to the logits, (softmax - onehot)/n.
    """
    n = logits.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # callers surface non-finite losses
        z = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        rows = np.arange(n)
        loss = float(np.mean(lse - z[rows, labels]))
        dlogits = np.exp(z - lse[:, None])
        dlogits[rows, labels] -= 1.0
        dlogits /= n
    return loss, dlogits


class Model:
    """An ordered layer stack plus the softmax cross-entropy head.

    `input_shape` is the per-sample shape the forward pass expects; batches
    arriving flat are reshaped to it. The model holds the parameter layout
    only. A model instance is confined to one training thread and
    forward/backward are not reentrant.
    """

    def __init__(self, layers, input_shape):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self._layout = []  # (layer, ((slice, shape), ...)) for each weighted layer
        self.passes = 0  # full forward passes; a probe's partial pass does not count
        self._grad_pass = (None, None, None)  # (passes, batch, params) at the last gradient pass
        offset = 0
        for layer in self.layers:
            spans = []
            for shape in layer.param_shapes:
                size = int(np.prod(shape))
                spans.append((slice(offset, offset + size), shape))
                offset += size
            if spans:
                self._layout.append((layer, tuple(spans)))
        self.param_count = offset

    def bind(self, params, grads=None):
        """Point each layer's params (and grads, when given) at views of these flat vectors."""
        for vec in (params, grads):
            if vec is not None and vec.shape != (self.param_count,):
                raise ValueError(f"expected {self.param_count} parameters, got {vec.shape}")
        for layer, spans in self._layout:
            layer.params = [params[s].reshape(shape) for s, shape in spans]
            if grads is not None:
                layer.grads = [grads[s].reshape(shape) for s, shape in spans]

    def forward(self, x):
        """Logits for a batch shaped (n, *input_shape)."""
        self.passes += 1
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def _forward_after_first(self, z):
        """Logits from z, the first weighted layer's output; the layers up to it do not run."""
        for layer in self.layers[self.layers.index(self._layout[0][0]) + 1 :]:
            z = layer.forward(z)
        return z


def _loss_head(model, batch, first_output=None):
    """(loss, dlogits) of the model on the batch, at whatever params are bound."""
    n = len(batch.labels)
    if n == 0:
        raise ValueError("batch is empty")
    if first_output is None:
        x = np.asarray(batch.inputs, dtype=np.float64).reshape((n, *model.input_shape))
        logits = model.forward(x)
    else:
        # made inside the call, so only the layers hold that output and can free it
        logits = model._forward_after_first(first_output())
    loss, dlogits = softmax_cross_entropy(logits, batch.labels)
    if not np.isfinite(loss):
        raise NonFiniteError("forward pass produced a non-finite loss")
    return loss, dlogits


def forward_loss(model, batch, params, first_output=None):
    """Mean batch NLL at the given parameter vector, which is only read.

    With `first_output`, a function returning the first weighted layer's
    output on this batch, the pass starts after that layer: the layers up to
    it do not run, their span of `params` is not read, and the pass does not
    count in `model.passes`. The function is called as the pass begins, so
    that no caller keeps that output alive through the later layers.
    """
    model.bind(params)
    return _loss_head(model, batch, first_output)[0]


def backward(model, batch, params):
    """Batch loss and the exact analytic gradient of forward_loss at params, as a new vector.

    Raises NonFiniteError on a non-finite loss. The gradient is not scanned
    here: the optimizer checks it before writing anything. The pass stops at
    the first weighted layer: its input gradient, and every layer before it,
    feed no parameter gradient.
    """
    grad = np.zeros(model.param_count, dtype=np.float64)
    model.bind(params, grad)
    loss, d = _loss_head(model, batch)
    first = model._layout[0][0] if model._layout else None
    for layer in reversed(model.layers):
        if layer is first:
            layer.backward(d, input_grad=False)
            model._grad_pass = (model.passes, batch, params)
            break
        d = layer.backward(d)
    return loss, grad


def init_params(model, rng, scheme="default"):
    """A new, seeded parameter vector, bound to the model.

    "default": each weight tensor uniform on [-r, r] with
    r = sqrt(6 / (fan_in + fan_out)); biases zero. "zeros": everything zero
    (kept because it is the degenerate-but-documented reproduction mode).
    Draws happen in layer order, so a given rng state fixes the result.
    """
    if scheme not in ("default", "zeros"):
        raise ValueError(f"unknown init scheme {scheme!r}")
    params = np.zeros(model.param_count, dtype=np.float64)
    model.bind(params)
    if scheme == "zeros":
        return params
    for layer, _ in model._layout:
        fan_in, fan_out = layer.fans()
        r = np.sqrt(6.0 / (fan_in + fan_out))
        W = layer.params[0]
        W[:] = rng_uniform(rng, W.shape, -r, r)
    return params


def build_logreg(input_dim=784, classes=10):
    """Multinomial logistic regression: one dense layer into the loss head."""
    return Model([Dense(input_dim, classes)], (input_dim,))


def build_mlp(input_dim=784, hidden=1000, classes=10):
    """Two ReLU hidden layers of equal width."""
    layers = [
        Dense(input_dim, hidden),
        Relu(),
        Dense(hidden, hidden),
        Relu(),
        Dense(hidden, classes),
    ]
    return Model(layers, (input_dim,))


def build_lenet5(input_shape=(1, 28, 28), classes=10, conv_channels=(6, 16), fc_dims=(120, 84)):
    """Classic LeNet-5 topology with ReLU activations and 2x2 max pooling.

    conv(5x5) -> pool -> conv(5x5) -> pool -> flatten -> three dense layers.
    28x28 inputs are zero-padded to 32x32 so the standard extents line up;
    conv_channels/fc_dims can be shrunk to make exhaustive gradient checks
    affordable.
    """
    cin, h, w = input_shape
    layers = []
    if (h, w) == (28, 28):
        layers.append(SpatialZeroPad(2))
        h = w = 32
    c1, c2 = conv_channels
    f1, f2 = fc_dims
    side = h
    for _ in range(2):  # two conv->pool stages, kernel 5, pool 2
        side = side - 4
        if side < 2 or side % 2:
            raise ValueError(f"input shape {input_shape} does not fit the topology")
        side //= 2
    layers += [
        Conv2d(cin, c1, 5),
        Relu(),
        MaxPool2(),
        Conv2d(c1, c2, 5),
        Relu(),
        MaxPool2(),
        Flatten(),
        Dense(c2 * side * side, f1),
        Relu(),
        Dense(f1, f2),
        Relu(),
        Dense(f2, classes),
    ]
    return Model(layers, input_shape)


def make_loss_probe(model, batch, params, grad, scratch):
    """Probe(s) = mean batch loss at params - s*grad, without touching `params`.

    Build it right after the gradient pass nn.backward(model, batch, params)
    that returned `grad`. Each call starts at the model's first weighted layer
    and takes that layer's output at the probe point from its `ray`, which
    reads what the gradient pass kept: Conv2d multiplies W - s*G against its
    columns, with every bit of a forward at the point; Dense returns z0 -
    s*(x @ G + gb), which reorders a forward's arithmetic. The layers before
    it do not run. The call writes the parameters after that layer, params -
    s*grad with the bits of the out-of-place expression, into `scratch`, a
    vector of params' shape that the caller owns and that aliases neither
    `params` nor `grad`, and runs the rest of the model through forward_loss.

    Building the probe computes nothing and keeps nothing alive; the one-off
    work (Dense's x @ G) runs at the first call. Building raises ValueError
    unless the model's last full forward was the gradient pass at this very
    `batch` and `params` object, and a call raises it once the model has run
    another full forward: in both cases the first layer's kept state belongs
    to another pass. `params` must not change in place before the last call.
    """
    first, spans = model._layout[0]
    rest = slice(spans[-1][0].stop, None)
    passes, grad_batch, grad_params = model._grad_pass
    if passes != model.passes or grad_batch is not batch or grad_params is not params:
        raise ValueError("a probe must follow the gradient pass at its batch and params")
    along = None

    def probe(s):
        nonlocal along
        if model.passes != passes:
            raise ValueError("the model ran a forward pass since this probe was made")
        if along is None:
            along = first.ray(*(grad[sl].reshape(shape) for sl, shape in spans))
        s = float(s)
        np.multiply(grad[rest], s, out=scratch[rest])
        np.subtract(params[rest], scratch[rest], out=scratch[rest])
        return forward_loss(model, batch, scratch, lambda: along(s))

    return probe
