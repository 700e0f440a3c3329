"""In-process A/B of whole training steps: a parent revision against the working tree.

    python3 scripts/step_ab.py --parent REV

Run from the root of a source checkout. REV's `src/lqa` is unpacked with
`git archive` into a temporary directory. It is imported in this one process
as the package `lqa_parent`, and the working tree's `src/lqa` twice, as
`lqa_change` and `lqa_change_aa`; lqa's relative imports make each copy
self-contained. Each side is built from public names only (`NEEDED`), and a
parent that lacks one of them, or a parameter of it, is refused.

For each of MODELS' workloads with each of OPTIMIZERS, both sides get the
same model shape, initial parameters, and cycle of eight seeded batches of
64 MNIST-shaped inputs (uniform pixels in k/255). A whole step is what the
training loop does per batch: the gradient pass, the loss probe, and the
update (`lqa_step`, or the baseline's step at rate 0.01). Every step
restarts from the initial parameters, copied in untimed, so both sides do
the same work and LQA's greedy rate cannot diverge. For the same reason the
tool cannot see a cost that depends on the trajectory, such as a pass whose
speed follows what the weights have become; only whole runs
(`scripts/bench_pairs.py`) see those. After a warm-up, rounds
run for SECONDS. Each round times single steps in ABBA order, parent-change-
change-parent, then the A/A control change-copy-copy-change, and keeps each
side's two-step sum; every other round runs BAAB instead, so neither side
always steps first or after itself. BLAS and OpenMP are pinned to one thread.

Printed per (workload, optimizer): both sides' median step in ms, the median
over rounds of (change - parent) / parent with a bootstrap 95% interval
(2,000 resamples of the rounds), and the same for the A/A control, whose
interval should span 0. Peak RSS cannot be compared in one process; it stays
with `scripts/bench_pairs.py`.
"""

import os

# one BLAS thread, set before numpy loads, as perfbench pins it
for _pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pin] = "1"

import argparse
import importlib.util
import inspect
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH = 64
BATCHES = 8
WARMUP_STEPS = 3
SECONDS = 10.0  # stepping time per (workload, optimizer)
SEED = 0  # of the parameters, the batches and the bootstrap
BOOTSTRAP = 2000
OPTIMIZERS = ("lqa", "sgd", "adam")
MODELS = {  # workload -> (builder, its arguments, per-sample input shape)
    "lenet5": ("build_lenet5", ((1, 28, 28), 10), (1, 28, 28)),
    "mlp": ("build_mlp", (784, 1000, 10), (784,)),
    "logreg": ("build_logreg", (784, 10), (784,)),
}
# (module, public name, parameters it must take) that a side is built from
NEEDED = (
    ("nn", "build_lenet5", ("input_shape", "classes")),
    ("nn", "build_mlp", ("input_dim", "hidden", "classes")),
    ("nn", "build_logreg", ("input_dim", "classes")),
    ("nn", "init_params", ("model", "rng")),
    ("nn", "backward", ("model", "batch", "params")),
    ("nn", "make_loss_probe", ("model", "batch", "params", "grad", "scratch")),
    ("optim", "LqaState", ()),
    ("optim", "lqa_step", ("params", "grad", "loss0", "probe", "state")),
    ("optim", "make_baseline", ("name", "lr", "dim")),
    ("data", "Batch", ("indices", "inputs", "labels")),
    ("tensor", "Rng", ("seed",)),
)


def load_package(name, src_dir):
    """Import the lqa package at src_dir/lqa under `name`, submodules included."""
    path = os.path.join(src_dir, "lqa")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    missing = []
    for module, attr, params in NEEDED:
        mod = importlib.import_module(f"{name}.{module}")
        fn = getattr(mod, attr, None)
        if fn is None or attr not in getattr(mod, "__all__", ()):
            missing.append(f"{module}.{attr}")
        elif not set(params) <= set(inspect.signature(fn).parameters):
            missing.append(f"{module}.{attr}{tuple(params)}")
    if missing:
        raise SystemExit(f"error: {src_dir} lacks {', '.join(missing)}")
    return package


class Side:
    """One package's model, parameters, batches and stepper for one (workload, optimizer)."""

    def __init__(self, package, workload, optimizer):
        ns = {m: sys.modules[f"{package.__name__}.{m}"] for m in ("nn", "optim", "data", "tensor")}
        self.nn, self.optim = ns["nn"], ns["optim"]
        builder, args, input_shape = MODELS[workload]
        self.model = getattr(self.nn, builder)(*args)
        self.init = self.nn.init_params(self.model, ns["tensor"].Rng(SEED))
        self.params = self.init.copy()
        self.scratch = np.empty_like(self.init)
        rng = np.random.default_rng(SEED)
        self.batches = []
        for k in range(BATCHES):
            x = rng.integers(0, 256, size=(BATCH, *input_shape)) / 255.0
            y = rng.integers(0, 10, size=BATCH)
            self.batches.append(ns["data"].Batch(np.arange(k * BATCH, (k + 1) * BATCH), x, y))
        self.optimizer = optimizer
        if optimizer == "lqa":
            self.state = self.optim.LqaState()
        else:
            self.stepper = self.optim.make_baseline(optimizer, 0.01, self.init.size)
        self.k = 0

    def step(self):
        """Seconds of one whole step from the initial parameters on the next batch."""
        np.copyto(self.params, self.init)
        batch = self.batches[self.k % BATCHES]
        self.k += 1
        start = time.perf_counter()
        loss, grad = self.nn.backward(self.model, batch, self.params)
        probe = self.nn.make_loss_probe(self.model, batch, self.params, grad, self.scratch)
        if self.optimizer == "lqa":
            self.optim.lqa_step(self.params, grad, loss, probe, self.state)
        else:
            self.stepper.step(self.params, grad)
        return time.perf_counter() - start


def abba(a, b, swap):
    """(a's, b's) two-step time of one round in order a, b, b, a, or b, a, a, b with swap."""
    if swap:
        return abba(b, a, False)[::-1]
    ta = a.step()
    tb = b.step() + b.step()
    return ta + a.step(), tb


def rel_summary(base, other, rng):
    """Median of (other - base) / base over rounds, with its bootstrap 95% interval."""
    rel = np.asarray(other) / np.asarray(base) - 1.0
    idx = rng.integers(0, rel.size, size=(BOOTSTRAP, rel.size))
    lo, hi = np.percentile(np.median(rel[idx], axis=1), [2.5, 97.5])
    return float(np.median(rel)), float(lo), float(hi)


def compare(packages, workload, optimizer):
    sides = [Side(p, workload, optimizer) for p in packages]
    for side in sides:
        for _ in range(WARMUP_STEPS):
            side.step()
    parent, change, copy = sides
    rounds = {"ab": ([], []), "aa": ([], [])}
    end, swap = time.perf_counter() + SECONDS, False
    while time.perf_counter() < end:
        for key, (a, b) in (("ab", (parent, change)), ("aa", (change, copy))):
            ta, tb = abba(a, b, swap)
            rounds[key][0].append(ta)
            rounds[key][1].append(tb)
        swap = not swap
    rng = np.random.default_rng(SEED)
    ab = rel_summary(*rounds["ab"], rng)
    aa = rel_summary(*rounds["aa"], rng)
    ms = [500.0 * float(np.median(t)) for t in rounds["ab"]]  # a round holds two steps per side
    print(f"{workload:7} {optimizer:5} parent {ms[0]:8.3f} ms  change {ms[1]:8.3f} ms  "
          f"change {100 * ab[0]:+6.1f}% [{100 * ab[1]:+.1f}, {100 * ab[2]:+.1f}]  "
          f"A/A {100 * aa[0]:+6.1f}% [{100 * aa[1]:+.1f}, {100 * aa[2]:+.1f}]  "
          f"rounds {len(rounds['ab'][0])}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="step_ab_") as tmp:
        archive = subprocess.run(["git", "archive", rev, "src/lqa"], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        packages = [load_package("lqa_parent", os.path.join(tmp, "src"))]
    packages += [load_package(name, os.path.join(ROOT, "src")) for name in ("lqa_change", "lqa_change_aa")]
    print(f"parent {rev}, change: working tree; ratios are (change - parent) / parent", flush=True)
    for workload in MODELS:
        for optimizer in OPTIMIZERS:
            compare(packages, workload, optimizer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
