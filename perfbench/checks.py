"""Correctness checks made apart from the program.

The reference forward and backward passes below are plain numpy written from
the documented model topologies and the flat parameter order (layers in
forward order, weights before bias, each raveled row-major); they import
nothing from `lqa`. Every check returns a list of problems, empty when the
run is correct.
"""

import csv
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SHAPES = {
    "logreg": [(784, 10), (10,)],
    "mlp": [(784, 1000), (1000,), (1000, 1000), (1000,), (1000, 10), (10,)],
    "lenet5": [
        (6, 1, 5, 5), (6,), (16, 6, 5, 5), (16,),
        (400, 120), (120,), (120, 84), (84,), (84, 10), (10,),
    ],
}
FALLBACKS = ("fallback_nonpositive_a", "fallback_small_b", "skipped_zero_grad")


def read_rows(path):
    """The metrics CSV as a list of {column: text} dicts."""
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _unpack(model, params):
    out, off = [], 0
    for shape in SHAPES[model]:
        size = int(np.prod(shape))
        out.append(params[off : off + size].reshape(shape))
        off += size
    if off != params.size:
        raise ValueError(f"{model} has {off} parameters, the run reported {params.size}")
    return out


def _cross_entropy(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(len(labels))
    d = np.exp(z - lse[:, None])
    d[rows, labels] -= 1.0
    return float(np.mean(lse - z[rows, labels])), d / len(labels)


def dense_loss_grad(model, params, x, y):
    """Loss and flat gradient of logreg or the MLP (ReLU between dense layers)."""
    ws = _unpack(model, params)
    acts = [x.reshape(len(y), -1)]
    for i in range(0, len(ws), 2):
        h = acts[-1] @ ws[i] + ws[i + 1]
        acts.append(np.maximum(h, 0.0) if i + 2 < len(ws) else h)
    loss, d = _cross_entropy(acts[-1], y)
    grads = []
    for i in range(len(ws) - 2, -1, -2):
        grads[:0] = [acts[i // 2].T @ d, d.sum(axis=0)]
        if i:
            d = (d @ ws[i].T) * (acts[i // 2] > 0.0)
    return loss, np.concatenate([g.ravel() for g in grads])


def _conv(x, w, b):
    windows = sliding_window_view(x, w.shape[2:], axis=(2, 3))
    return np.einsum("nchwij,ocij->nohw", windows, w, optimize=True) + b[None, :, None, None]


def lenet_loss(params, x, y, gates=None):
    """LeNet-5 loss: pad 2, conv-ReLU-pool twice, three dense layers.

    Returns (loss, gates): the ReLU masks and the 2x2 pooling choices (first
    maximum on ties). Passing `gates` back holds them fixed, which makes the
    loss smooth in the parameters around the point they were taken at.
    """
    record = gates is None
    gates = [] if record else gates
    it = iter(gates)

    def relu(h):
        mask = h > 0.0 if record else next(it)
        if record:
            gates.append(mask)
        return np.where(mask, h, 0.0)

    def pool(h):
        n, c, rows, cols = h.shape
        tiles = h.reshape(n, c, rows // 2, 2, cols // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        tiles = tiles.reshape(n, c, rows // 2, cols // 2, 4)
        pick = tiles.argmax(axis=4) if record else next(it)
        if record:
            gates.append(pick)
        return np.take_along_axis(tiles, pick[..., None], axis=4)[..., 0]

    c1, b1, c2, b2, w3, b3, w4, b4, w5, b5 = _unpack("lenet5", params)
    h = np.pad(x.reshape(len(y), 1, 28, 28), ((0, 0), (0, 0), (2, 2), (2, 2)))
    h = pool(relu(_conv(h, c1, b1)))
    h = pool(relu(_conv(h, c2, b2))).reshape(len(y), -1)
    h = relu(h @ w3 + b3)
    h = relu(h @ w4 + b4)
    return _cross_entropy(h @ w5 + b5, y)[0], gates


def check_step(model, tag, params, x, y, loss, grad):
    """The run's batch loss and gradient against the reference at one step."""
    problems = []
    if model == "lenet5":
        # with the gates held, a ReLU input of exactly 0 (an all-zero window
        # under zero biases) is no kink, and the program's gradient is exact
        ref, gates = lenet_loss(params, x, y)
        gg = float(grad @ grad)
        h = 1e-5 / math.sqrt(gg)
        up, down = (lenet_loss(params + t * grad, x, y, gates)[0] for t in (h, -h))
        dd = (up - down) / (2 * h)
        if not abs(dd - gg) <= 1e-5 * gg:
            problems.append(f"{tag}: directional difference {dd!r} but g.g {gg!r}")
    else:
        ref, ref_grad = dense_loss_grad(model, params, x, y)
        err = float(np.max(np.abs(grad - ref_grad)))
        if not err <= 1e-9 * float(np.max(np.abs(ref_grad))):
            problems.append(f"{tag}: gradient differs from the reference by {err:.3e}")
    if not abs(loss - ref) <= 1e-10 * max(1.0, abs(ref)):
        problems.append(f"{tag}: batch loss {loss!r} but reference {ref!r}")
    return problems


def check_rows(rows, optimizer, steps, model, progress):
    """Counts, finiteness and, when `progress` is set, that the loss fell."""
    problems = []
    if len(rows) != steps:
        return [f"{len(rows)} metric rows, expected {steps}"]
    for k, r in enumerate(rows, start=1):
        fwd, bwd = int(r["forward_count"]), int(r["backward_count"])
        if bwd != k or fwd != (3 * bwd if optimizer == "lqa" else bwd):
            problems.append(f"step {k}: forward_count {fwd}, backward_count {bwd}")
            break
    if not all(math.isfinite(float(r[c])) for r in rows for c in ("train_loss", "epoch_loss")):
        problems.append("a loss is not finite")
    if progress and not float(rows[-1]["epoch_loss"]) < float(rows[0]["train_loss"]):
        problems.append(
            f"{model}: final epoch_loss {rows[-1]['epoch_loss']} not below "
            f"the first train_loss {rows[0]['train_loss']}"
        )
    return problems


def check_lqa_rates(rows, probes, delta0, delta_min, delta_max, b_min):
    """Each lr_used from the probe losses the run saw: a/(2b) clamped, or the
    previous rate when the fit was degenerate."""
    if len(probes) != len(rows):
        return [f"{len(probes)} probe sets for {len(rows)} steps"]
    prev = delta0
    for k, (r, seen) in enumerate(zip(rows, probes), start=1):
        at = {s: v for s, v in seen}
        if set(at) - {0.0} != {prev, -prev}:
            return [f"step {k}: probed at {sorted(at)}, expected +-{prev!r}"]
        loss0 = float(r["train_loss"])
        up, down = at[-prev], at[prev]
        a = (up - down) / (2.0 * prev)
        b = (up + down - 2.0 * loss0) / (2.0 * prev * prev)
        lr, verdict = float(r["lr_used"]), r["lqa_verdict"]
        if (a == 0.0 and b == 0.0) or a <= 0.0 or b < b_min:
            ok = verdict in FALLBACKS and lr == prev
        else:
            want = min(max(a / (2.0 * b), delta_min), delta_max)
            ok = verdict in ("accepted", "clamped") and abs(lr - want) <= 1e-12 * want
        if not ok:
            return [f"step {k}: lr_used {lr!r} ({verdict}) does not follow a={a!r} b={b!r}"]
        prev = lr
    return []


def check_identical(traced, untraced):
    """The traced run's loss and rate columns against the untraced run's, as text."""
    cols = ("train_loss", "lr_used")
    a = [tuple(r[c] for c in cols) for r in traced]
    b = [tuple(r[c] for c in cols) for r in untraced]
    return [] if a == b else ["traced train_loss/lr_used columns differ from the untraced run"]
