"""Layers with explicit forward/backward passes and the three benchmark models.

Every model is a plain sequence of layers topped by a fused softmax
cross-entropy head. A model holds the layout of its parameters, never their
values: each pass binds the layers' weight tensors to reshaped views of the
flat float64 vector it is given, so evaluating the loss at a new vector
(which the probe-based optimizer does three times per batch step) copies
nothing. A gradient pass binds a fresh gradient vector of the same layout and
returns it.

Each pass does only the work a caller reads. The gradient pass stops at the
first weighted layer, which fills its parameter gradients but computes no
input gradient, so the layers before it never run backward. MaxPool2 keeps a
small first-max code per window for its backward, not its input.

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

    backward(dout) fills the bound grads and returns the gradient with respect
    to the last forward's input. The weighted layers, Dense and Conv2d, set
    param_shapes and define fans(), the (fan_in, fan_out) of their weight
    tensor that init_params reads. They also take `input_grad`: with False
    they fill grads and return None, skipping the input gradient that nobody
    reads below a model's first weighted layer.
    """

    param_shapes = ()
    params = grads = ()

    def forward(self, x):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError


class Dense(Layer):
    """Fully connected layer: x @ W + b with W of shape (in, out)."""

    def __init__(self, in_dim, out_dim):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.param_shapes = ((in_dim, out_dim), (out_dim,))
        self._x = None

    def fans(self):
        return self.in_dim, self.out_dim

    def forward(self, x):
        self._x = x
        W, b = self.params
        return x @ W + b

    def backward(self, dout, input_grad=True):
        W, _ = self.params
        gW, gb = self.grads
        gW[:] = self._x.T @ dout
        gb[:] = dout.sum(axis=0)
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

    Forward lowers each input window to a row (im2col) and runs one matrix
    product against the reshaped filter bank.
    """

    def __init__(self, in_channels, out_channels, kernel=5):
        self.cin = in_channels
        self.cout = out_channels
        self.k = kernel
        self.param_shapes = ((out_channels, in_channels, kernel, kernel), (out_channels,))
        self._cols = None
        self._xshape = None

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
        windows = sliding_window_view(x, (k, k), axis=(2, 3))  # (n, cin, oh, ow, k, k)
        cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
        cols = cols.reshape(n * oh * ow, cin * k * k)
        W, b = self.params
        out = cols @ W.reshape(self.cout, -1).T + b
        self._cols = cols
        self._xshape = x.shape
        return out.reshape(n, oh, ow, self.cout).transpose(0, 3, 1, 2)

    def backward(self, dout, input_grad=True):
        n, cin, h, w = self._xshape
        k = self.k
        _, cout, oh, ow = dout.shape
        W, _ = self.params
        gW, gb = self.grads
        dmat = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, cout)
        gW[:] = (dmat.T @ self._cols).reshape(gW.shape)
        gb[:] = dmat.sum(axis=0)
        if not input_grad:
            return None
        dcols = dmat @ W.reshape(cout, -1)
        dcols = dcols.reshape(n, oh, ow, cin, k, k).transpose(0, 3, 1, 2, 4, 5)
        dx = np.zeros(self._xshape, dtype=np.float64)
        for i in range(k):
            for j in range(k):
                dx[:, :, i : i + oh, j : j + ow] += dcols[:, :, :, :, i, j]
        return dx


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
        for layer in self.layers:
            x = layer.forward(x)
        return x


def _loss_head(model, batch):
    """(loss, dlogits) of the model on the batch, at whatever params are bound."""
    n = len(batch.labels)
    if n == 0:
        raise ValueError("batch is empty")
    x = np.asarray(batch.inputs, dtype=np.float64).reshape((n, *model.input_shape))
    loss, dlogits = softmax_cross_entropy(model.forward(x), batch.labels)
    if not np.isfinite(loss):
        raise NonFiniteError("forward pass produced a non-finite loss")
    return loss, dlogits


def forward_loss(model, batch, params):
    """Mean batch NLL at the given parameter vector, which is only read."""
    model.bind(params)
    return _loss_head(model, batch)[0]


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


def make_loss_probe(model, batch, params, grad, on_eval=None):
    """Probe(s) = mean batch loss at params - s*grad, without touching `params`.

    Every call is one forward pass and calls `on_eval` (if given) once, which
    is how the runner counts that cost.
    """

    def probe(s):
        if on_eval is not None:
            on_eval()
        return forward_loss(model, batch, params - float(s) * grad)

    return probe
