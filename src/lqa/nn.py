"""Layers with explicit forward/backward passes and the three benchmark models.

Every model is a plain sequence of layers topped by a fused softmax
cross-entropy head. A model holds the layout of its parameters, never their
values: each pass binds the layers' weight tensors to reshaped views of the
flat float64 vector it is given, so evaluating the loss at a new vector
copies nothing. A gradient pass binds a fresh gradient vector of the same
layout, which the weighted layers fill in place, and returns it; nothing in
the model holds it after that, so a caller that drops it frees it before
the next pass allocates its own.

Each pass does only the work a caller reads. The gradient pass stops at the
first weighted layer, which fills its parameter gradients but computes no
input gradient, so the layers before it never run backward. MaxPool2 keeps a
small first-max code per window for its backward, not its input, and builds
it in gradient passes only. LeNet-5 pools before its ReLUs, which then run on
a quarter of the elements. Conv2d lays its columns and output out channel
first and its input gradient batch last, so im2col and col2im run over
contiguous memory, and it keeps one column buffer at a time.

The loss probe, which the probe-based optimizer calls twice per batch step,
redoes no work that is the same at every step size. It starts at the first
weighted layer, from what the step's gradient pass left there: Conv2d's
columns, against which it multiplies the filters moved along the gradient
ray, or Dense's output, which is affine along the ray. The layers before it,
which see only the batch, do not run again. Each weighted layer takes its
own output along the ray with `along`, from the gradient pass's parameters
and gradient, and the other layers run `infer`, which keeps nothing for a
backward; the head computes no logit gradient. A Dense layer's batch
gradient x0ᵀD has rank at most the batch size n, so x @ G + gb equals
(x @ x0ᵀ + 1) @ D; on a model whose first weighted layer is Dense, every
Dense layer takes its term along the ray in that Gram form when it takes
fewer multiplies, and then builds no moved weights. A probe writes no
parameter-sized vector: on the MLP at batch 64, the last layer's 10,010
moved weights are its only ones. It counts nothing: the training loop
counts the probes the optimizer makes.

Flat ordering is fixed: layers in forward order, then each layer's tensors in
declaration order (weights before bias), each raveled row-major.
"""

import weakref

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import NonFiniteError, _fill_uniform

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
    infer(x) returns forward's output where no backward follows; a layer
    whose forward keeps state only its backward reads may skip it there.
    The weighted layers, Dense and Conv2d, set param_shapes (weight first),
    and their backward takes `input_grad`: with False they fill grads and
    return None, skipping the input gradient nobody reads below a model's
    first weighted layer. Their `along(x, s, G, gb)` returns the output on x
    at the bound weights moved to W - s*G and b - s*gb, G and gb being the
    gradient pass's own gradient spans; x None means that pass's own input,
    whose output the layer takes from what the pass kept. The loss probe
    calls it.
    """

    param_shapes = ()
    params = grads = ()

    def infer(self, x):
        return self.forward(x)


class Dense(Layer):
    """Fully connected layer: x @ W + b with W of shape (in, out).

    Forward keeps its input x0, for backward, and its output, for the
    probes; backward keeps the output gradient D it received. The batch
    gradient G = x0ᵀD, gb = 1ᵀD has rank at most n, so for any x, x @ G + gb
    equals (x @ x0ᵀ + 1) @ D, and `gram_pays` says when that Gram form takes
    fewer multiplies and `gram` allows it: False until a Dense-first model
    sets it, so a layer on its own keeps a forward's bits. `along`
    keeps only zg = x0 @ G + gb, taken once per gradient pass, so a probe
    leaves x0 and D for the next one.
    Forward drops the last pass's output before computing the new one: with
    both alive for a moment, an MLP LQA run's peak RSS read about 10 MB higher.
    """

    def __init__(self, in_dim, out_dim):
        self.param_shapes = ((in_dim, out_dim), (out_dim,))
        self.gram = False
        self._x = self._out = self._dout = self._zg = None

    def forward(self, x):
        self._x = x
        self._out = self._dout = self._zg = None  # free the last pass's output before the new one exists
        W, b = self.params
        self._out = x @ W + b
        return self._out

    def infer(self, x):
        W, b = self.params
        return x @ W + b

    def gram_pays(self):
        """Whether the Gram form is allowed and (x @ x0ᵀ + 1) @ D, n*n*(in + out) multiplies, beats x @ G, n*in*out."""
        din, dout = self.param_shapes[0]
        return self.gram and din * dout > len(self._x) * (din + dout)

    def _gram(self, x):
        """x @ G + gb for the last backward's G and gb, as (x @ x0ᵀ + 1) @ D."""
        k = x @ self._x.T
        k += 1.0
        return k @ self._dout

    def along(self, x, s, G, gb):
        """The output on x at W - s*G and b - s*gb; x None is the gradient pass's own input.

        That input's output is affine in s, z0 - s*zg with z0 the kept output.
        Another x takes x @ W + b - s*(x @ x0ᵀ + 1) @ D where the Gram form
        pays, else x @ (W - s*G) + (b - s*gb), a forward's bits at the point.
        """
        if x is None:
            if self._zg is None:
                self._zg = self._gram(self._x) if self.gram_pays() else self._x @ G + gb
            return self._out - s * self._zg
        W, b = self.params
        if not self.gram_pays():
            return x @ (W - s * G) + (b - s * gb)
        out = x @ W
        out += b
        zg = self._gram(x)
        zg *= s
        out -= zg
        return out

    def backward(self, dout, input_grad=True):
        W, _ = self.params
        gW, gb = self.grads
        np.matmul(self._x.T, dout, out=gW)
        np.sum(dout, axis=0, out=gb)
        self._dout = dout
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
    built, so one column buffer is live. Backward multiplies the filters
    against the output gradient laid out (cout, oh, ow, n) and adds each
    kernel offset's (cin, oh, ow, n) slab of column gradients into a (cin, h,
    w, n) buffer (col2im), so each add writes runs of ow*n floats; the input
    gradient is an (n, cin, h, w) view of it. `along` multiplies the filters
    moved along the ray against the kept columns, or against columns of a
    probe's x that replace them as a forward's would, with a forward's bits
    at the point; the output itself is not kept.
    """

    def __init__(self, in_channels, out_channels, kernel=5):
        self.cin = in_channels
        self.cout = out_channels
        self.k = kernel
        self.param_shapes = ((out_channels, in_channels, kernel, kernel), (out_channels,))
        self._cols = None
        self._xshape = None

    def forward(self, x):
        self._im2col(x)
        return self._product(*self.params)

    def along(self, x, s, G, gb):
        if x is not None:
            self._im2col(x)
        W, b = self.params
        return self._product(W - s * G, b - s * gb)

    def _im2col(self, x):
        """Keep x's columns and shape, in place of the last pass's."""
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
        del dmat  # freed before dlast, its size, is made: a run's peak RSS counts both
        # batch innermost: each slab add below writes runs of ow*n floats, in
        # the same per-element order, so dx keeps its bits
        dlast = np.ascontiguousarray(dout.transpose(1, 2, 3, 0)).reshape(cout, -1)
        dcols = (W.reshape(cout, -1).T @ dlast).reshape(cin, k, k, oh, ow, n)
        dx = np.zeros((cin, h, w, n), dtype=np.float64)
        for i in range(k):
            for j in range(k):
                dx[:, i : i + oh, j : j + ow] += dcols[:, i, j]
        return dx.transpose(3, 0, 1, 2)


class MaxPool2(Layer):
    """2x2 max pooling with stride 2. Ties break toward the first element.

    Forward takes pairwise maxima of the four strided window views and keeps
    only a uint8 code per window: the row-major position, 0 to 3, of its
    first maximum. Backward routes each output gradient to that position.
    The input itself is not kept, which would raise a LeNet-5 run's peak RSS.
    `infer` takes the three maxima alone: the code is five of forward's
    eight passes, and only a gradient pass reads it.
    """

    def __init__(self):
        self._code = None

    @staticmethod
    def _windows(x):
        """The four strided (n, c, h/2, w/2) views of x's windows, in row-major position order."""
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial extents, got {h}x{w}")
        win = x.reshape(n, c, h // 2, 2, w // 2, 2)
        return win[:, :, :, 0, :, 0], win[:, :, :, 0, :, 1], win[:, :, :, 1, :, 0], win[:, :, :, 1, :, 1]

    def forward(self, x):
        x00, x01, x10, x11 = self._windows(x)
        top = np.maximum(x00, x01)
        bottom = np.maximum(x10, x11)
        # a later element wins only when strictly greater, as argmax would pick
        self._code = np.where(top >= bottom, x01 > x00, 2 + (x11 > x10).view(np.uint8))
        return np.maximum(top, bottom)

    def infer(self, x):
        x00, x01, x10, x11 = self._windows(x)
        return np.maximum(np.maximum(x00, x01), np.maximum(x10, x11))

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
        h, w = dout.shape[2:]
        return dout[:, :, p : h - p, p : w - p].copy()


def _nll(logits, labels):
    """(mean NLL, z, lse): the loss, with the shifted logits and log-sum-exp its gradient reuses."""
    with np.errstate(over="ignore", invalid="ignore"):  # callers surface non-finite losses
        z = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        loss = float(np.mean(lse - z[np.arange(len(z)), labels]))
    return loss, z, lse


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer labels under softmax(logits).

    Fused in log space (log-sum-exp with max subtraction). Returns the loss
    and its gradient with respect to the logits, (softmax - onehot)/n.
    """
    loss, z, lse = _nll(logits, labels)
    n = logits.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        dlogits = np.exp(z - lse[:, None])
        dlogits[np.arange(n), labels] -= 1.0
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
        self._grad_pass = None  # (batch, params, weakref(grad)) while the layers hold that pass's state
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
        # a Dense-first probe already reorders a forward's arithmetic; LeNet-5's keeps its bits
        dense_first = bool(self._layout) and isinstance(self._layout[0][0], Dense)
        for layer, _ in self._layout:
            if isinstance(layer, Dense):
                layer.gram = dense_first

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
        self._grad_pass = None  # backward sets it again once this pass is its own
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def _check_pass(self, batch, params, grad):
        """Raise ValueError unless the layers hold the gradient pass at batch and params that returned grad."""
        p = self._grad_pass
        if p is None or p[0] is not batch or p[1] is not params or p[2]() is not grad:
            raise ValueError("the model's last forward was not the gradient pass at this batch and params, "
                             "which returned this gradient")

    def _along(self, grad, s):
        """Logits at the bound params moved to params - s*grad, from the gradient pass's state.

        The pass starts at the first weighted layer, whose `along` is called
        with None: the layers before it do not run. Each weighted layer runs
        `along` with its spans of grad, the others `infer`, since no backward
        follows.
        """
        spans = dict(self._layout)
        z = None
        for layer in self.layers[self.layers.index(self._layout[0][0]) :]:
            if layer in spans:
                z = layer.along(z, s, *(grad[sl].reshape(shape) for sl, shape in spans[layer]))
            else:
                z = layer.infer(z)
        return z


def _logits(model, batch):
    """The model's logits on the batch, at whatever params are bound."""
    n = len(batch.labels)
    if n == 0:
        raise ValueError("batch is empty")
    x = np.asarray(batch.inputs, dtype=np.float64).reshape((n, *model.input_shape))
    return model.forward(x)


def _finite(loss):
    if not np.isfinite(loss):
        raise NonFiniteError("forward pass produced a non-finite loss")
    return loss


def forward_loss(model, batch, params, ray=None):
    """Mean batch NLL at the given parameter vector, which is only read.

    With `ray=(grad, s)`, the NLL at params - s*grad, taken from the state
    that the gradient pass nn.backward(model, batch, params), which returned
    grad, left in the layers: the pass starts at the first weighted layer,
    each weighted layer runs `along`, and model._grad_pass stays. It raises
    ValueError unless the model's last full forward was that pass, at this
    very batch and params object, which returned this very grad.
    """
    if ray is not None:
        model._check_pass(batch, params, ray[0])
    model.bind(params)
    logits = _logits(model, batch) if ray is None else model._along(ray[0], float(ray[1]))
    return _finite(_nll(logits, batch.labels)[0])


def backward(model, batch, params):
    """Batch loss and the exact analytic gradient of forward_loss at params, as a new vector.

    Raises NonFiniteError on a non-finite loss. The gradient is not scanned
    here: the optimizer checks it before writing anything. The pass stops at
    the first weighted layer: its input gradient, and every layer before it,
    feed no parameter gradient.
    """
    grad = np.zeros(model.param_count, dtype=np.float64)
    model.bind(params, grad)
    loss, d = softmax_cross_entropy(_logits(model, batch), batch.labels)
    _finite(loss)
    first = model._layout[0][0] if model._layout else None
    for layer in reversed(model.layers):
        if layer is first:
            layer.backward(d, input_grad=False)
            model._grad_pass = (batch, params, weakref.ref(grad))  # the caller owns grad
            break
        d = layer.backward(d)
    for layer, _ in model._layout:
        layer.grads = ()  # no view of grad outlives the pass
    return loss, grad


def init_params(model, rng, scheme="default"):
    """A new, seeded parameter vector, bound to the model.

    "default": each weight tensor uniform on [-r, r] with
    r = sqrt(6 / (fan_in + fan_out)); biases zero. "zeros": everything zero
    (kept because it is the degenerate-but-documented reproduction mode).
    Draws happen in layer order, so a given rng state fixes the result; each
    weight's draws are written straight into its span of the vector.
    """
    if scheme not in ("default", "zeros"):
        raise ValueError(f"unknown init scheme {scheme!r}")
    params = np.zeros(model.param_count, dtype=np.float64)
    model.bind(params)
    if scheme == "zeros":
        return params
    for layer, spans in model._layout:
        W = layer.params[0]
        # W is Dense's (in, out) or Conv2d's (out, in, k, k): fan_in + fan_out = (in + out) * W[0, 0].size
        r = np.sqrt(6.0 / ((W.shape[0] + W.shape[1]) * W[0, 0].size))
        _fill_uniform(rng, params[spans[0][0]], -r, r)
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
    Each stage pools before its ReLU, which then runs on a quarter of the
    elements. The order is exact: ReLU is monotone, so relu(maxpool(x)) ==
    maxpool(relu(x)) bit for bit, a window's first maximum is the routed
    position whenever it is positive, and a window with no positive element
    passes back zeros either way.
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
    for stage_in, stage_out in ((cin, c1), (c1, c2)):  # conv(5x5) -> pool(2x2) -> relu
        side = side - 4
        if side < 2 or side % 2:
            raise ValueError(f"input shape {input_shape} does not fit the topology")
        side //= 2
        layers += [Conv2d(stage_in, stage_out, 5), MaxPool2(), Relu()]
    layers += [
        Flatten(),
        Dense(c2 * side * side, f1),
        Relu(),
        Dense(f1, f2),
        Relu(),
        Dense(f2, classes),
    ]
    return Model(layers, input_shape)


def make_loss_probe(model, batch, params, grad):
    """Probe(s) = mean batch loss at params - s*grad, without touching `params`.

    Build it right after the gradient pass nn.backward(model, batch, params)
    that returned `grad`; a call is forward_loss(model, batch, params, (grad,
    s)). It starts at the model's first weighted layer, whose output at the
    point comes from what the gradient pass kept: Conv2d multiplies W - s*G
    against its columns, with every bit of a forward at the point; Dense
    returns z0 - s*(x0 @ G + gb), which reorders a forward's arithmetic. The
    layers before it do not run. On a model whose first weighted layer is
    Dense, a later Dense layer for which `gram_pays` takes its term through
    the batch Gram matrix and builds no moved weights: on the MLP at batch
    64, the 1000x1000 layer. Every other later weighted layer runs on its
    weights moved to the point, with a forward's bits.

    Building the probe computes nothing and keeps nothing alive; the one-off
    work (Dense's x0 @ G + gb) runs at the first call. Building and calling
    run the same check and raise ValueError unless the model's last full
    forward was the gradient pass at this very `batch` and `params` object,
    which returned this very `grad`: otherwise the layers' kept state belongs
    to another pass. `params` must not change in place before the last call.
    """
    model._check_pass(batch, params, grad)
    return lambda s: forward_loss(model, batch, params, (grad, s))
