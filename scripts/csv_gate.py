"""Fixed-clock CSV gate: the sha256 of 49 short training runs.

    PYTHONPATH=src python scripts/csv_gate.py [--check scripts/csv_gate.sha256]

For a fixed config and seed the metrics CSV is the program's behaviour, so a
change that must not alter behaviour keeps every hash. The gate writes a
320-image MNIST-shaped train split drawn from numpy.random.default_rng(123)
and runs {logreg, mlp, lenet5, synthetic-quadratic} x the seven optimizers
on it. It also runs logreg with the seven optimizers on a second, 3,000-image
split drawn from default_rng(3000), named `logreg3000`: its 46 batches per
epoch are drawn in chunks of 20, 20 and 6 batches, so those runs cross chunk
boundaries, where the 320-image split's five batches are one chunk. The
`cifar-logreg` and `cifar-lenet5` runs, with the seven optimizers each, read
a CIFAR-shaped split: five 64-record data_batch_*.bin files drawn from
default_rng(10), so they take the CIFAR loader and LeNet-5's 3-channel,
unpadded conv path. Every run takes 2 epochs (batch 64, seed 7, lr 0.01 for the baselines) with a
fixed clock, and the gate prints one `name-optimizer sha256` line per run.
With --check FILE it compares against FILE, names each mismatch, ends with a
`matched N/M` line (M counting the names in either) and exits 1 if there is
a mismatch.

The bytes depend on the BLAS build: csv_gate.sha256 holds the hashes from
numpy 2.4.6 with scipy-openblas 0.3.31 on one thread. That is why the gate is
a script and not a test.
"""

import os

# one BLAS thread, set before numpy loads, so summation order is fixed
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import sys
import tempfile

import numpy as np

from lqa import bench, data

MODELS = ("logreg", "mlp", "lenet5", "synthetic-quadratic")


# the second split's directory under the gate's base, and the name of its runs
LARGE = "logreg3000"
# the CIFAR-shaped split's directory under the gate's base, and its runs' name prefix
CIFAR = "cifar"


def write_split(directory, count, seed):
    """A `count`-image train split drawn from default_rng(seed), under directory/mnist."""
    rng = np.random.default_rng(seed)
    directory = os.path.join(directory, "mnist")
    os.makedirs(directory)
    images = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=count, dtype=np.uint8)
    data.write_idx_images(os.path.join(directory, "train-images-idx3-ubyte"), images)
    data.write_idx_labels(os.path.join(directory, "train-labels-idx1-ubyte"), labels)


def write_cifar_split(directory, seed):
    """Five 64-record CIFAR-10 data_batch_*.bin files drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    os.makedirs(directory)
    for i in range(1, 6):
        labels = rng.integers(0, 10, size=(64, 1), dtype=np.uint8)
        pixels = rng.integers(0, 256, size=(64, 3072), dtype=np.uint8)
        np.hstack([labels, pixels]).tofile(os.path.join(directory, f"data_batch_{i}.bin"))


def write_inputs(base):
    """The gate's three train splits, the only files a run reads."""
    write_split(base, 320, 123)
    write_split(os.path.join(base, LARGE), 3000, 3000)
    write_cifar_split(os.path.join(base, CIFAR), 10)


def gate_hashes(base):
    """{"name-optimizer": sha256 of that run's fixed-clock CSV}."""
    runs = [(model, model, "mnist", base) for model in MODELS]
    runs.append((LARGE, "logreg", "mnist", os.path.join(base, LARGE)))
    runs += [(f"{CIFAR}-{model}", model, "cifar10", os.path.join(base, CIFAR))
             for model in ("logreg", "lenet5")]
    hashes = {}
    for name, model, dataset, data_dir in runs:
        for optimizer in bench.OPTIMIZERS:
            if model == "synthetic-quadratic":
                where = dict(dataset=model)
            else:
                where = dict(model=model, dataset=dataset, data_dir=data_dir)
            out = os.path.join(base, f"{name}-{optimizer}.csv")
            config = bench.TrainConfig(
                optimizer=optimizer, lr=None if optimizer == "lqa" else 0.01,
                epochs=2, batch_size=64, seed=7, out=out, **where,
            )
            bench.run_training(config, clock=lambda: 0.0)
            with open(out, "rb") as f:
                hashes[f"{name}-{optimizer}"] = hashlib.sha256(f.read()).hexdigest()
    return hashes


def main(argv=None):
    parser = argparse.ArgumentParser(description="sha256 of 49 fixed-clock training CSVs")
    parser.add_argument("--check", metavar="FILE", help="expected `name sha256` lines")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as base:
        write_inputs(base)
        hashes = gate_hashes(base)
    for name, digest in hashes.items():
        print(f"{name} {digest}")
    if args.check is None:
        return 0
    with open(args.check) as f:
        expected = dict(line.split() for line in f if line.strip())
    names = expected.keys() | hashes.keys()
    bad = sorted(name for name in names if expected.get(name) != hashes.get(name))
    for name in bad:
        print(f"MISMATCH {name}: got {hashes.get(name)}, expected {expected.get(name)}",
              file=sys.stderr)
    print(f"matched {len(names) - len(bad)}/{len(names)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
