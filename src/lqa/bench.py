"""Experiment runner and CLI.

One training run wires a model, a dataset, and an optimizer into the epoch /
batch-step loop, recording one metric row per batch step. The epoch_loss
column carries the running mean of the epoch's batch losses, so the last row
of each epoch is that epoch's summary. Runs are deterministic for a fixed
config and seed; wall time is the one column measured from a real clock, and
can be pinned with a fixed clock for byte-identical output.

Cost accounting: every gradient pass counts one forward and one backward;
every optimizer probe counts one extra forward. The per-step rate estimator
therefore shows exactly forward_count == 3 * backward_count, baselines show
equality. A probe runs less than a forward (it starts at the first weighted
layer from the gradient pass's state), so the count overstates its cost.
"""

import argparse
import csv
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import data as data_mod
from . import nn, optim, oracle
from .tensor import NonFiniteError, Rng, derive_seed, rng_uniform

__all__ = [
    "TrainConfig",
    "MetricRecord",
    "TrainingDiverged",
    "run_training",
    "emit_csv",
    "read_metrics",
    "epoch_summaries",
    "emit_plot",
    "cli_main",
]

MODELS = ("logreg", "mlp", "lenet5")
DATASETS = ("mnist", "cifar10", "synthetic-quadratic")
OPTIMIZERS = (*optim.BASELINES, "lqa")
# the synthetic quadratic objective's dimension
QUAD_DIM = 10


class TrainingDiverged(RuntimeError):
    """Raised when a run hits a non-finite loss; metrics so far were flushed."""


@dataclass
class TrainConfig:
    model: str = "logreg"
    dataset: str = "mnist"
    optimizer: str = "lqa"
    lr: float | None = None
    batch_size: int = 64
    epochs: int = 1
    seed: int = 0
    init: str = "default"
    data_dir: str | None = None
    out: str | None = None

    def validate(self):
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.dataset != "synthetic-quadratic" and self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.init not in ("default", "zeros"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.optimizer != "lqa" and (self.lr is None or not self.lr > 0.0):
            raise ValueError(f"optimizer {self.optimizer!r} requires a positive --lr")
        if self.lr is not None and not math.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")


@dataclass
class MetricRecord:
    epoch: int
    batch_step: int
    train_loss: float
    epoch_loss: float
    lr_used: float
    lqa_verdict: str
    forward_count: int
    backward_count: int
    wall_time_s: float


# the metrics CSV's columns are MetricRecord's fields, in order
CSV_HEADER = ",".join(f.name for f in fields(MetricRecord))


def _setup(config, rng):
    """(params, epoch, evaluate) for one run of `config`.

    params is the initial vector, owned by the caller; epoch() returns one
    epoch's batches; evaluate(batch, params) returns the batch loss, its
    gradient and probe(s), the loss at params - s*grad. Each probe call counts
    as one forward pass; the run loop counts the calls. A model run allocates
    one scratch vector of params' shape, which every probe of every step
    writes its point into, so probing allocates no parameter-sized vector,
    and one float64 buffer of (N//n)*n input rows, which every epoch's
    batches are views of.
    """
    if config.dataset == "synthetic-quadratic":
        objective = data_mod.synthetic_quadratic(QUAD_DIM, derive_seed(config.seed, 0))
        if config.init == "zeros":
            params = np.zeros(QUAD_DIM, dtype=np.float64)
        else:
            params = rng_uniform(rng, (QUAD_DIM,), -1.0, 1.0)

        def evaluate(batch, params):
            loss, grad = oracle.quad_loss_grad(objective, params)
            return loss, grad, oracle.ray_probe(objective, params, grad)

        # full-batch objective: one step per epoch
        return params, lambda: [None], evaluate

    base = config.data_dir or data_mod.default_data_dir()
    # the loaders return the 1-tuple (train,)
    if config.dataset == "mnist":
        train = data_mod.load_mnist(os.path.join(base, "mnist"))[0]
        flat_dim, image_shape = 784, (1, 28, 28)
    else:
        train = data_mod.load_cifar10(base)[0]
        flat_dim, image_shape = 3072, (3, 32, 32)
    if config.model == "logreg":
        model = nn.build_logreg(flat_dim, 10)
    elif config.model == "mlp":
        model = nn.build_mlp(flat_dim, 1000, 10)
    else:
        model = nn.build_lenet5(image_shape, 10)
    params = nn.init_params(model, rng, config.init)
    scratch = np.empty_like(params)
    # one buffer for every epoch: a fresh one per epoch would coexist with the
    # last epoch's, which Dense._x and the last probe keep alive
    n = config.batch_size
    epoch_inputs = np.empty((train.n // n * n, *train.inputs.shape[1:]))

    def evaluate(batch, params):
        loss, grad = nn.backward(model, batch, params)
        return loss, grad, nn.make_loss_probe(model, batch, params, grad, scratch)

    def epoch():
        return data_mod.epoch_batches(train, n, rng, epoch_inputs)

    return params, epoch, evaluate


def run_training(config, clock=time.perf_counter, log=None):
    """Execute one run and return its per-batch-step metric records.

    Each step evaluates the batch loss, gradient and loss probe, then updates
    the run's own parameter vector in place with the configured optimizer.
    The CSV is written to config.out (when set) header-only before the first
    step, so an unwritable path fails at once, and again however the run ends,
    so a run that finishes, diverges or is interrupted keeps every row it
    recorded.
    """
    config.validate()
    params, epoch_batches, evaluate = _setup(config, Rng(derive_seed(config.seed, 1)))
    if config.out:
        emit_csv([], config.out)
    if config.optimizer == "lqa":
        state = optim.LqaState()
    else:
        stepper = optim.make_baseline(config.optimizer, config.lr, params.size)
    probes = []  # one entry per probe lqa_step makes, each one more forward pass
    records = []
    t0 = clock()
    try:
        for epoch in range(1, config.epochs + 1):
            loss_sum = 0.0
            for k, batch in enumerate(epoch_batches(), start=1):
                loss, grad, probe = evaluate(batch, params)
                if not math.isfinite(loss):
                    raise NonFiniteError(f"non-finite loss at epoch {epoch} step {k}")
                loss_sum += loss
                if config.optimizer == "lqa":
                    # the probe it gets logs each call; append returns None
                    optim.lqa_step(params, grad, loss,
                                   lambda s: probes.append(s) or probe(s), state)
                    lr_used, verdict = state.delta0, state.last_verdict.value
                else:
                    stepper.step(params, grad)
                    lr_used, verdict = config.lr, ""
                step = len(records) + 1
                records.append(
                    MetricRecord(
                        epoch=epoch,
                        batch_step=step,
                        train_loss=loss,
                        epoch_loss=loss_sum / k,
                        lr_used=lr_used,
                        lqa_verdict=verdict,
                        # one forward and one backward per gradient pass
                        forward_count=step + len(probes),
                        backward_count=step,
                        wall_time_s=clock() - t0,
                    )
                )
            if log is not None:
                last = records[-1]
                log(f"epoch {epoch}/{config.epochs}  loss {last.epoch_loss:.6f}  lr {last.lr_used:.6g}")
    except NonFiniteError as exc:
        raise TrainingDiverged(str(exc)) from exc
    finally:
        if config.out:
            emit_csv(records, config.out)
    return records


# ---------------------------------------------------------------------------
# Metric files
# ---------------------------------------------------------------------------


def emit_csv(records, path):
    """Write records, one column per MetricRecord field; floats keep 17 significant digits."""
    columns = [(c.name, c.type is float) for c in fields(MetricRecord)]
    with open(path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for r in records:
            f.write(",".join([format(float(getattr(r, name)), ".17g") if is_float
                              else str(getattr(r, name)) for name, is_float in columns]) + "\n")


def read_metrics(path):
    """Parse a metrics CSV back into records; raises ValueError on schema drift."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        if header != CSV_HEADER.split(","):
            raise ValueError(f"{path} does not match the metrics schema")
        columns = fields(MetricRecord)
        records = []
        for row in reader:
            if len(row) != len(columns):
                raise ValueError(f"{path}: expected {len(columns)} columns, got {len(row)}")
            records.append(MetricRecord(*(c.type(cell) for c, cell in zip(columns, row))))
    return records


def epoch_summaries(records):
    """(epoch, epoch_loss) from the last record of each epoch."""
    out = []
    for r in records:
        if out and out[-1][0] == r.epoch:
            out[-1] = (r.epoch, r.epoch_loss)
        else:
            out.append((r.epoch, r.epoch_loss))
    return out


# ---------------------------------------------------------------------------
# Plotting (self-contained SVG)
# ---------------------------------------------------------------------------

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
    "#9467bd", "#8c564b", "#17becf", "#7f7f7f",
)


def emit_plot(csv_paths, path):
    """860x560 line chart of epoch loss vs iteration, one polyline per metrics file."""
    if not csv_paths:
        raise ValueError("need at least one metrics file")
    series = []
    for p in csv_paths:
        pts = epoch_summaries(read_metrics(p))
        if not pts:
            raise ValueError(f"{p} has no records to plot")
        if not all(math.isfinite(y) for _, y in pts):
            raise ValueError(f"{p} has a non-finite epoch_loss")
        stem = os.path.splitext(os.path.basename(p))[0]
        series.append((stem, pts))

    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    width, height = 860, 560
    margin_l, margin_r, margin_t, margin_b = 70, 24, 24, 56
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def sx(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    def ticks(lo, hi, n=5):
        step = (hi - lo) / n
        return [lo + i * step for i in range(n + 1)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{margin_l + plot_w}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
    ]
    for t in ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin_t + plot_h}" x2="{x:.1f}" '
            f'y2="{margin_t + plot_h + 5}" stroke="black"/>'
            f'<text x="{x:.1f}" y="{margin_t + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{t:.4g}</text>'
        )
    for t in ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{margin_l - 5}" y1="{y:.1f}" x2="{margin_l}" y2="{y:.1f}" '
            f'stroke="black"/>'
            f'<text x="{margin_l - 8}" y="{y + 4:.1f}" font-size="12" '
            f'text-anchor="end">{t:.4g}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2}" y="{height - 14}" font-size="14" '
        f'text-anchor="middle">iteration</text>'
    )
    parts.append(
        f'<text x="18" y="{margin_t + plot_h / 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {margin_t + plot_h / 2})">training loss</text>'
    )
    for i, (stem, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = margin_t + 16 + 18 * i
        lx = margin_l + plot_w - 150
        parts.append(
            f'<rect x="{lx}" y="{ly - 10}" width="14" height="4" fill="{color}"/>'
            f'<text x="{lx + 20}" y="{ly - 4}" font-size="12">{stem}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts))


# ---------------------------------------------------------------------------
# Verification suite (also backs the acceptance tests)
# ---------------------------------------------------------------------------


def relative_error(analytic, numeric):
    """Elementwise |a - n| / max(|a|, |n|, 1e-6), reduced to the max."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float((np.abs(a - b) / denom).max())


def check_quadratic_exactness():
    """Max relative gap between the probe-solved rate and the closed form.

    Each instance recenters the linear offset so the loss at the probe point
    is zero; the estimator is exactly invariant to constant loss shifts, and
    without the recentering the second difference at delta0 = 1e-4 would lose
    eight significant digits to cancellation before the estimator ever saw it.
    """
    dims, seed = (1, 2, 10, 100), 2024
    worst = 0.0
    for i in range(50):
        dim = dims[i % len(dims)]
        q = data_mod.synthetic_quadratic(dim, derive_seed(seed, i))
        rng = Rng(derive_seed(seed, 1000 + i))
        theta = rng_uniform(rng, (dim,), -1.0, 1.0)
        if float(theta @ theta) < 1e-3:
            theta = theta + 1.0
        shift = (float(q.c @ theta) - 0.5 * float(theta @ (q.A @ theta))) / float(theta @ theta)
        q = oracle.QuadraticObjective(q.A, q.c - shift * theta)
        loss0, grad = oracle.quad_loss_grad(q, theta)
        expected = oracle.quad_optimal_step(q, theta, grad)
        for d0 in (1e-4, 1e-2, 1.0):
            state = optim.LqaState(delta0=d0)
            probe = oracle.ray_probe(q, theta, grad)
            optim.lqa_step(theta.copy(), grad, loss0, probe, state)
            worst = max(worst, abs(state.delta0 - expected) / abs(expected))
    return worst


def _layer_fd_errors(model, params, x, rng):
    """FD-vs-analytic max relative error for a one-layer model (params and input)."""
    layer = model.layers[0]
    grad = np.zeros_like(params)
    model.bind(params, grad)
    readout = rng_uniform(rng, np.asarray(layer.forward(x)).shape, -1.0, 1.0)

    def loss_at(x_eval):
        return float(np.sum(readout * layer.forward(x_eval)))

    layer.forward(x)
    dx = layer.backward(readout.copy())
    errs = [relative_error(dx, oracle.finite_diff_grad(
        lambda v: loss_at(v.reshape(x.shape)), x.ravel()).reshape(x.shape))]

    if model.param_count:
        def loss_at_params(vec):
            model.bind(vec)
            return loss_at(x)

        # the backward above filled grad; differencing runs forwards only
        errs.append(relative_error(grad, oracle.finite_diff_grad(loss_at_params, params)))
    return max(errs)


def _toy_batch(rng, n, input_shape, classes):
    x = rng_uniform(rng, (n, *input_shape), -1.0, 1.0)
    y = np.minimum((rng.uniform(n) * classes).astype(np.int64), classes - 1)
    return data_mod.Batch(np.arange(n), x, y)


def check_gradient_correctness():
    """FD checks for every layer type, the loss head, and every model builder.

    Returns {check name: max relative error}.
    """
    rng = Rng(11)
    results = {}

    cases = [
        ("dense", nn.Dense(7, 5), (4, 7)),
        ("relu", nn.Relu(), (4, 6)),
        ("conv", nn.Conv2d(2, 3, 3), (2, 2, 6, 6)),
        ("pool", nn.MaxPool2(), (2, 2, 6, 6)),
        ("pad", nn.SpatialZeroPad(2), (2, 1, 4, 4)),
        ("flatten", nn.Flatten(), (3, 2, 4, 4)),
    ]
    for name, layer, x_shape in cases:
        model = nn.Model([layer], x_shape[1:])
        params = nn.init_params(model, rng)
        x = rng_uniform(rng, x_shape, -1.0, 1.0)
        results[name] = _layer_fd_errors(model, params, x, rng)

    # loss head: analytic dlogits vs FD through the scalar loss
    logits = rng_uniform(rng, (5, 4), -2.0, 2.0)
    labels = np.array([0, 3, 1, 2, 2])
    _, dlogits = nn.softmax_cross_entropy(logits, labels)
    fd = oracle.finite_diff_grad(
        lambda v: nn.softmax_cross_entropy(v.reshape(5, 4), labels)[0], logits.ravel()
    )
    results["loss_head"] = relative_error(dlogits, fd.reshape(5, 4))

    builders = [
        ("logreg", nn.build_logreg(12, 4), (12,), 4),
        ("mlp", nn.build_mlp(12, 8, 3), (12,), 3),
        ("lenet5", nn.build_lenet5((1, 16, 16), 3, conv_channels=(2, 3), fc_dims=(6, 5)), (1, 16, 16), 3),
    ]
    for name, model, in_shape, classes in builders:
        params = nn.init_params(model, rng)
        batch = _toy_batch(rng, 6, in_shape, classes)
        _, analytic = nn.backward(model, batch, params)
        fd = oracle.finite_diff_grad(lambda p: nn.forward_loss(model, batch, p), params)
        results[f"model_{name}"] = relative_error(analytic, fd)
    return results


def check_coefficient_identity():
    """(relative error of the linear coefficient vs dot(g, g) at delta0 = 0.01,
    error-shrink factor when delta0 is halved) on a logistic-regression batch.
    """
    rng = Rng(5)
    model = nn.build_logreg(10, 4)
    params = nn.init_params(model, rng)
    batch = _toy_batch(rng, 32, (10,), 4)
    loss0, grad = nn.backward(model, batch, params)
    gg = float(grad @ grad)

    def rel_err(d0):
        state = optim.LqaState(delta0=d0)
        probe = nn.make_loss_probe(model, batch, params, grad, np.empty_like(params))
        optim.lqa_step(params.copy(), grad, loss0, probe, state)
        return abs(state.a - gg) / gg

    e1 = rel_err(0.01)
    e2 = rel_err(0.01 / 2.0)
    return e1, (e1 / e2 if e2 > 0.0 else math.inf)


def run_verification():
    """The `verify` subcommand: oracle-backed self-checks, PASS/FAIL per line on stdout."""
    failures = []

    def report(name, ok, detail):
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        if not ok:
            failures.append(name)

    worst = check_quadratic_exactness()
    report("rate solver exact on quadratics", worst < 1e-9, f"max rel err {worst:.2e}")

    grads = check_gradient_correctness()
    worst_name, worst_err = max(grads.items(), key=lambda kv: kv[1])
    report(
        "gradients vs central differences",
        worst_err < 1e-4,
        f"worst {worst_name} rel err {worst_err:.2e}",
    )

    e1, ratio = check_coefficient_identity()
    report(
        "linear coefficient matches dot(g, g)",
        e1 < 1e-3 and 3.0 <= ratio <= 5.0,
        f"rel err {e1:.2e}, halving ratio {ratio:.2f}",
    )
    return len(failures)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lqa",
        description="Train small classifiers with a per-step estimated learning rate "
        "and benchmark it against standard optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fetch = sub.add_parser("fetch", help="download and verify a dataset")
    p_fetch.add_argument("--dataset", choices=("mnist", "cifar10"), required=True)
    p_fetch.add_argument("--data-dir", default=None)
    p_fetch.add_argument("--base-url", default=None,
                         help="URL of the directory holding the dataset's archives")

    # a flag left out is left out of the namespace, so TrainConfig's default applies
    p_train = sub.add_parser("train", help="run one training configuration",
                             argument_default=argparse.SUPPRESS)
    p_train.add_argument("--model", choices=MODELS)
    p_train.add_argument("--dataset", choices=DATASETS)
    p_train.add_argument("--optimizer", choices=OPTIMIZERS, required=True)
    p_train.add_argument("--lr", type=float,
                         help="learning rate (required for every optimizer except lqa)")
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--epochs", type=int, required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--init", choices=("default", "zeros"))
    p_train.add_argument("--data-dir")
    p_train.add_argument("--out", required=True, help="metrics CSV path")
    p_train.add_argument("--fixed-clock", action="store_true", default=False,
                         help="record wall_time_s as 0.0 for byte-identical reruns")
    p_train.add_argument("--quiet", action="store_true", default=False)

    p_plot = sub.add_parser("plot", help="render metrics CSVs as an SVG chart")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("csvs", nargs="+")

    sub.add_parser("verify", help="run the oracle-backed self checks")
    return parser


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "fetch":
            base = args.data_dir or data_mod.default_data_dir()
            if args.dataset == "mnist":
                path = data_mod.fetch_mnist(os.path.join(base, "mnist"),
                                            args.base_url or data_mod.MNIST_BASE_URL)
            else:
                path = data_mod.fetch_cifar10(base, args.base_url or data_mod.CIFAR10_BASE_URL)
            print(f"dataset ready under {path}")
            return 0

        if args.command == "train":
            # every other flag's destination is a TrainConfig field of the same name
            settings = vars(args)
            del settings["command"]
            clock = (lambda: 0.0) if settings.pop("fixed_clock") else time.perf_counter
            log = None if settings.pop("quiet") else (lambda msg: print(msg, file=sys.stderr))
            run_training(TrainConfig(**settings), clock=clock, log=log)
            print(f"wrote {args.out}")
            return 0

        if args.command == "plot":
            emit_plot(args.csvs, args.out)
            print(f"wrote {args.out}")
            return 0

        return 1 if run_verification() else 0
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(cli_main())
