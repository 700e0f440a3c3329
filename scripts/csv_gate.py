"""Fixed-clock CSV gate: the sha256 of 28 short training runs.

    PYTHONPATH=src python scripts/csv_gate.py [--check scripts/csv_gate.sha256]

For a fixed config and seed the metrics CSV is the program's behaviour, so a
change that must not alter behaviour keeps every hash. The gate writes a
320-image MNIST-shaped train split drawn from numpy.random.default_rng(123),
then runs {logreg, mlp, lenet5, synthetic-quadratic} x the seven optimizers
for 2 epochs (batch 64, seed 7, lr 0.01 for the baselines) with a fixed clock
and prints one `model-optimizer sha256` line per run. With --check FILE it
compares against FILE, names each mismatch and exits 1 if there is one.

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


def write_inputs(base):
    """The gate's train split under base/mnist, the only split a run reads."""
    rng = np.random.default_rng(123)
    directory = os.path.join(base, "mnist")
    os.makedirs(directory)
    images = rng.integers(0, 256, size=(320, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=320, dtype=np.uint8)
    data.write_idx_images(os.path.join(directory, "train-images-idx3-ubyte"), images)
    data.write_idx_labels(os.path.join(directory, "train-labels-idx1-ubyte"), labels)


def gate_hashes(base):
    """{"model-optimizer": sha256 of that run's fixed-clock CSV}."""
    hashes = {}
    for model in MODELS:
        for optimizer in bench.OPTIMIZERS:
            if model == "synthetic-quadratic":
                where = dict(dataset=model)
            else:
                where = dict(model=model, dataset="mnist", data_dir=base)
            out = os.path.join(base, f"{model}-{optimizer}.csv")
            config = bench.TrainConfig(
                optimizer=optimizer, lr=None if optimizer == "lqa" else 0.01,
                epochs=2, batch_size=64, seed=7, out=out, **where,
            )
            bench.run_training(config, clock=lambda: 0.0)
            with open(out, "rb") as f:
                hashes[f"{model}-{optimizer}"] = hashlib.sha256(f.read()).hexdigest()
    return hashes


def main(argv=None):
    parser = argparse.ArgumentParser(description="sha256 of 28 fixed-clock training CSVs")
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
    bad = sorted(name for name in expected.keys() | hashes.keys()
                 if expected.get(name) != hashes.get(name))
    for name in bad:
        print(f"MISMATCH {name}: got {hashes.get(name)}, expected {expected.get(name)}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
