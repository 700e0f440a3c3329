"""Acceptance gate: one test per criterion, one printed verdict line each.

Criteria 1-3 are oracle-backed and always run. Criteria 4-9 train on MNIST
and skip (with instructions) when the IDX files are absent; fetch them with

    python -m lqa fetch --dataset mnist --data-dir <repo>/data

Training runs are cached as CSVs under acceptance_runs/ at the repo root so
a re-invocation of pytest does not redo roughly an hour of CPU work. A run
trains into <name>.csv.partial and is renamed to <name>.csv only when it
finishes. Delete that directory after changing any training code.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lqa.bench import (
    TrainConfig,
    check_coefficient_identity,
    check_gradient_correctness,
    check_quadratic_exactness,
    emit_csv,
    epoch_summaries,
    read_metrics,
    run_training,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.environ.get("LQA_DATA_DIR", os.path.join(REPO_ROOT, "data"))
MNIST_DIR = os.path.join(DATA_DIR, "mnist")
RUNS_DIR = os.path.join(REPO_ROOT, "acceptance_runs")

_MNIST_STEMS = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def _have_mnist():
    return all(
        os.path.exists(os.path.join(MNIST_DIR, s)) or os.path.exists(os.path.join(MNIST_DIR, s + ".gz"))
        for s in _MNIST_STEMS
    )


def _require_mnist():
    if not _have_mnist():
        pytest.skip(
            f"MNIST not found under {MNIST_DIR}; "
            f"run: python -m lqa fetch --dataset mnist --data-dir {DATA_DIR}"
        )


@contextmanager
def criterion(num, title):
    t0 = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"[criterion {num}] {title}: SKIP ({exc})")
        raise
    except AssertionError:
        print(f"[criterion {num}] {title}: FAIL")
        raise
    print(f"[criterion {num}] {title}: PASS ({time.perf_counter() - t0:.1f}s)")


_FIXED_CLOCK = lambda: 0.0
_run_cache = {}


def _gated_run(name, **config_kwargs):
    """Run (or reload) one MNIST training config, cached as a CSV on disk."""
    if name in _run_cache:
        return _run_cache[name]
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, f"{name}.csv")
    if os.path.exists(path):
        records = read_metrics(path)
    else:
        # a diverged or interrupted run leaves its rows in the side file, so
        # only a finished run is ever found at `path`
        partial = path + ".partial"
        config = TrainConfig(dataset="mnist", data_dir=DATA_DIR, seed=42, out=partial, **config_kwargs)
        records = run_training(config, clock=_FIXED_CLOCK)
        os.replace(partial, path)
    _run_cache[name] = (records, path)
    return records, path


def _loss_at_epoch(records, epoch):
    for e, loss in epoch_summaries(records):
        if e == epoch:
            return loss
    raise AssertionError(f"run has no epoch {epoch}")


# --- always-on criteria -------------------------------------------------------


def test_criterion_01_quadratic_exactness():
    with criterion(1, "rate estimator exact on random quadratics"):
        t0 = time.perf_counter()
        worst = check_quadratic_exactness(
            instances=50, dims=(1, 2, 10, 100), deltas=(1e-4, 1e-2, 1.0)
        )
        elapsed = time.perf_counter() - t0
        assert worst < 1e-9, f"worst relative error {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_02_gradient_correctness():
    with criterion(2, "every layer and builder passes gradient checks"):
        t0 = time.perf_counter()
        errors = check_gradient_correctness(h=1e-5)
        elapsed = time.perf_counter() - t0
        expected = {
            "dense", "relu", "conv", "pool", "pad", "flatten", "loss_head",
            "model_logreg", "model_mlp", "model_lenet5",
        }
        assert expected <= set(errors)
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: relative error {err:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_03_coefficient_identity():
    with criterion(3, "linear coefficient identity with quadratic error decay"):
        t0 = time.perf_counter()
        rel_err, ratio = check_coefficient_identity(delta0=0.01)
        elapsed = time.perf_counter() - t0
        assert rel_err < 1e-3, f"relative error {rel_err:.3e} at delta0=0.01"
        assert 3.0 <= ratio <= 5.0, f"halving shrank the error by {ratio:.2f}x"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# --- MNIST-gated criteria -------------------------------------------------------


def test_criterion_04_logreg_mnist_lqa():
    with criterion(4, "logreg/MNIST reaches the 10-epoch loss band"):
        _require_mnist()
        records, _ = _gated_run("logreg_lqa", model="logreg", optimizer="lqa", epochs=10)
        loss10 = _loss_at_epoch(records, 10)
        assert loss10 <= 0.31, f"epoch-10 loss {loss10:.4f} > 0.31"


def test_criterion_05_logreg_mnist_sgd_crosscheck():
    with criterion(5, "SGD(0.1) epoch band and ordering at epoch 10"):
        _require_mnist()
        lqa_records, _ = _gated_run("logreg_lqa", model="logreg", optimizer="lqa", epochs=10)
        sgd_records, _ = _gated_run(
            "logreg_sgd_lr0.1", model="logreg", optimizer="sgd", lr=0.1, epochs=55
        )
        below = [e for e, loss in epoch_summaries(sgd_records) if loss < 0.31]
        assert below, "SGD(0.1) never dropped below 0.31 in 55 epochs"
        first = min(below)
        assert 25 <= first <= 55, f"SGD(0.1) first crossed 0.31 at epoch {first}"
        lqa10 = _loss_at_epoch(lqa_records, 10)
        sgd10 = _loss_at_epoch(sgd_records, 10)
        assert lqa10 <= sgd10, f"epoch-10: estimator {lqa10:.4f} vs SGD {sgd10:.4f}"


def test_criterion_06_mlp_mnist_vs_adam():
    with criterion(6, "MLP/MNIST beats Adam at epoch 20 and hits the loss band"):
        _require_mnist()
        lqa_records, _ = _gated_run("mlp_lqa", model="mlp", optimizer="lqa", epochs=20)
        adam_records, _ = _gated_run(
            "mlp_adam_lr0.001", model="mlp", optimizer="adam", lr=0.001, epochs=20
        )
        lqa20 = _loss_at_epoch(lqa_records, 20)
        adam20 = _loss_at_epoch(adam_records, 20)
        assert lqa20 < adam20, f"epoch-20: estimator {lqa20:.5f} vs Adam {adam20:.5f}"
        assert lqa20 <= 0.02, f"epoch-20 loss {lqa20:.5f} > 0.02"


def test_criterion_07_lenet_mnist_vs_sgd_grid():
    with criterion(7, "LeNet-5/MNIST dominates the SGD grid at epoch 20"):
        _require_mnist()
        lqa_records, _ = _gated_run("lenet5_lqa", model="lenet5", optimizer="lqa", epochs=20)
        grid = {}
        for lr in (0.1, 0.01, 0.001):
            records, _ = _gated_run(
                f"lenet5_sgd_lr{lr}", model="lenet5", optimizer="sgd", lr=lr, epochs=20
            )
            grid[lr] = _loss_at_epoch(records, 20)
        lqa20 = _loss_at_epoch(lqa_records, 20)
        best_sgd = min(grid.values())
        assert lqa20 <= best_sgd, f"epoch-20: estimator {lqa20:.5f} vs best SGD {best_sgd:.5f}"

        losses = [loss for _, loss in epoch_summaries(lqa_records)]
        moving = [float(np.mean(losses[t - 5 : t])) for t in range(5, len(losses) + 1)]
        drops = all(b <= a for a, b in zip(moving, moving[1:]))
        assert drops, f"5-epoch moving average increased somewhere: {moving}"


def test_criterion_08_determinism():
    with criterion(8, "same-seed rerun produces byte-identical metrics"):
        _require_mnist()
        _, cached_path = _gated_run("logreg_lqa", model="logreg", optimizer="lqa", epochs=10)
        fresh_path = cached_path.replace(".csv", "_rerun.csv")
        config = TrainConfig(
            model="logreg", dataset="mnist", optimizer="lqa", epochs=10,
            seed=42, data_dir=DATA_DIR, out=fresh_path,
        )
        run_training(config, clock=_FIXED_CLOCK)
        with open(cached_path, "rb") as a, open(fresh_path, "rb") as b:
            assert a.read() == b.read(), "rerun CSV differs from the cached run"


def test_criterion_09_cost_accounting():
    with criterion(9, "probe cost accounting on all gated runs"):
        _require_mnist()
        names = [
            ("logreg_lqa", dict(model="logreg", optimizer="lqa", epochs=10)),
            ("logreg_sgd_lr0.1", dict(model="logreg", optimizer="sgd", lr=0.1, epochs=55)),
            ("mlp_lqa", dict(model="mlp", optimizer="lqa", epochs=20)),
            ("mlp_adam_lr0.001", dict(model="mlp", optimizer="adam", lr=0.001, epochs=20)),
            ("lenet5_lqa", dict(model="lenet5", optimizer="lqa", epochs=20)),
            ("lenet5_sgd_lr0.1", dict(model="lenet5", optimizer="sgd", lr=0.1, epochs=20)),
            ("lenet5_sgd_lr0.01", dict(model="lenet5", optimizer="sgd", lr=0.01, epochs=20)),
            ("lenet5_sgd_lr0.001", dict(model="lenet5", optimizer="sgd", lr=0.001, epochs=20)),
        ]
        for name, kwargs in names:
            records, _ = _gated_run(name, **kwargs)
            if kwargs["optimizer"] == "lqa":
                bad = [r for r in records if r.forward_count != 3 * r.backward_count]
            else:
                bad = [r for r in records if r.forward_count != r.backward_count]
            assert not bad, f"{name}: {len(bad)} rows violate the cost invariant"
