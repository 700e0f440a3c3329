import csv
import errno
import gzip
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from lqa import bench, data, nn, optim
from lqa.bench import (
    MetricRecord,
    TrainConfig,
    TrainingDiverged,
    emit_csv,
    emit_plot,
    epoch_summaries,
    read_metrics,
    run_training,
)
from lqa.data import synthetic_quadratic, write_idx_images, write_idx_labels
from lqa.oracle import quad_loss_grad, quad_optimal_step
from lqa.tensor import Rng, derive_seed, rng_uniform

FIXED_CLOCK = lambda: 0.0


def quad_config(**kw):
    base = dict(dataset="synthetic-quadratic", optimizer="lqa", epochs=4, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def make_tiny_mnist(tmp_path, n_train=192):
    """Writes a small classification set's train split in the MNIST on-disk layout."""
    rng = np.random.default_rng(12)
    d = tmp_path / "data" / "mnist"
    d.mkdir(parents=True)
    labels = rng.integers(0, 10, size=n_train, dtype=np.uint8)
    # images lightly correlated with the label so the loss can actually fall
    images = rng.integers(0, 40, size=(n_train, 28, 28), dtype=np.uint8)
    for i, lab in enumerate(labels):
        images[i, lab, :] = 220
    write_idx_images(d / "train-images-idx3-ubyte", images)
    write_idx_labels(d / "train-labels-idx1-ubyte", labels)
    return tmp_path / "data"


# --- config validation -----------------------------------------------------


def test_lr_required_for_non_lqa():
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(dataset="synthetic-quadratic", optimizer="sgd", epochs=1).validate()


def test_unknown_names_rejected():
    for bad in (
        dict(model="vgg"),
        dict(dataset="imagenet"),
        dict(optimizer="lbfgs"),
        dict(epochs=0),
        dict(batch_size=0),
        dict(init="he"),
        dict(lr=math.inf),
    ):
        cfg = TrainConfig(**{**dict(optimizer="lqa", epochs=1), **bad})
        with pytest.raises(ValueError):
            cfg.validate()


def test_lr_ignored_for_lqa():
    quad_config(lr=None).validate()


# --- the training loop -------------------------------------------------------


def test_quadratic_first_step_matches_closed_form_oracle():
    recs = run_training(quad_config(epochs=2), clock=FIXED_CLOCK)
    obj = synthetic_quadratic(bench.QUAD_DIM, derive_seed(3, 0))
    theta0 = rng_uniform(Rng(derive_seed(3, 1)), (bench.QUAD_DIM,), -1.0, 1.0)
    loss0, g = quad_loss_grad(obj, theta0)
    rate = quad_optimal_step(obj, theta0, g)
    post_loss, _ = quad_loss_grad(obj, theta0 - rate * g)
    assert abs(recs[0].train_loss - loss0) < 1e-12
    assert abs(recs[1].train_loss - post_loss) < 1e-9


def test_quadratic_descent_and_verdicts():
    recs = run_training(quad_config(epochs=10), clock=FIXED_CLOCK)
    losses = [r.train_loss for r in recs]
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert all(r.lqa_verdict == "accepted" for r in recs)


def test_determinism_byte_identical_csv(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_training(quad_config(out=p1), clock=FIXED_CLOCK)
    run_training(quad_config(out=p2), clock=FIXED_CLOCK)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_seed_changes_trajectory():
    a = run_training(quad_config(), clock=FIXED_CLOCK)
    b = run_training(quad_config(seed=4), clock=FIXED_CLOCK)
    assert a[0].train_loss != b[0].train_loss


def test_zeros_init_starts_at_origin():
    recs = run_training(quad_config(init="zeros", epochs=1), clock=FIXED_CLOCK)
    obj = synthetic_quadratic(bench.QUAD_DIM, derive_seed(3, 0))
    loss0, _ = quad_loss_grad(obj, np.zeros(bench.QUAD_DIM))
    assert abs(recs[0].train_loss - loss0) < 1e-15


def test_cost_accounting_lqa_vs_baselines():
    lqa_recs = run_training(quad_config(epochs=5), clock=FIXED_CLOCK)
    assert [(r.forward_count, r.backward_count) for r in lqa_recs] == [
        (3 * i, i) for i in range(1, 6)
    ]
    sgd_recs = run_training(quad_config(optimizer="sgd", lr=0.01, epochs=5), clock=FIXED_CLOCK)
    assert all(r.forward_count == r.backward_count for r in sgd_recs)


def test_forward_count_counts_the_probes_lqa_step_makes(monkeypatch):
    real_step = optim.lqa_step

    def probing_thrice(params, grad, loss0, probe, state):
        probe(0.5 * state.delta0)
        return real_step(params, grad, loss0, probe, state)

    monkeypatch.setattr(bench.optim, "lqa_step", probing_thrice)
    recs = run_training(quad_config(epochs=5), clock=FIXED_CLOCK)
    assert all(r.forward_count == 4 * r.backward_count for r in recs)


def test_counting_probes_holds_no_memory_per_probe(monkeypatch):
    real_step = optim.lqa_step
    extra = 0

    def probing_more(params, grad, loss0, probe, state):
        for _ in range(extra):
            probe(0.5 * state.delta0)
        return real_step(params, grad, loss0, probe, state)

    monkeypatch.setattr(bench.optim, "lqa_step", probing_more)
    run_training(quad_config(epochs=5), clock=FIXED_CLOCK)  # imports and caches, untraced
    peaks = {}
    for extra in (0, 10_000):
        tracemalloc.start()
        try:
            recs = run_training(quad_config(epochs=5), clock=FIXED_CLOCK)
            peaks[extra] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert recs[-1].forward_count == (3 + extra) * recs[-1].backward_count
    # a record of each probe would hold 50,000 of them by the last step, 8 B
    # or more apiece
    assert peaks[10_000] - peaks[0] < 50_000


@pytest.mark.parametrize("opt", ["lqa", "sgd"])
def test_each_gradient_is_freed_before_the_next_pass(tmp_path, monkeypatch, opt):
    # the loop's names, the probe and the layers must let go of a step's
    # gradient, so that a gradient pass never holds two
    data_dir = make_tiny_mnist(tmp_path)
    real_backward = nn.backward
    last, alive = [], []

    def tracked(model, batch, params):
        alive.append(bool(last) and last[-1]() is not None)
        loss, grad = real_backward(model, batch, params)
        last.append(weakref.ref(grad))
        return loss, grad

    monkeypatch.setattr(nn, "backward", tracked)
    cfg = TrainConfig(model="mlp", dataset="mnist", optimizer=opt, lr=0.01, epochs=1,
                      batch_size=64, seed=4, data_dir=str(data_dir))
    assert len(run_training(cfg, clock=FIXED_CLOCK)) == len(alive) == 3
    assert not any(alive)


def test_log_reports_each_epoch_loss_and_last_rate(tmp_path):
    cfg = TrainConfig(
        model="logreg", dataset="mnist", optimizer="lqa", epochs=2, batch_size=64, seed=4,
        data_dir=str(make_tiny_mnist(tmp_path)),
    )
    lines = []
    recs = run_training(cfg, clock=FIXED_CLOCK, log=lines.append)
    last = {r.epoch: r for r in recs}  # 3 steps per epoch, each with its own rate
    assert len(recs) == 6 and len({r.lr_used for r in recs}) > 2
    assert lines == [
        f"epoch {e}/2  loss {r.epoch_loss:.6f}  lr {r.lr_used:.6g}" for e, r in last.items()
    ]


@pytest.mark.parametrize("name", ["sgd", "sgd-m", "sgd-nag", "adagrad", "rmsprop", "adam"])
def test_all_baselines_run_on_quadratic(name):
    recs = run_training(quad_config(optimizer=name, lr=0.02, epochs=3), clock=FIXED_CLOCK)
    assert len(recs) == 3
    assert all(r.lr_used == 0.02 and r.lqa_verdict == "" for r in recs)


def test_divergence_flushes_partial_csv(tmp_path):
    out = str(tmp_path / "div.csv")
    cfg = quad_config(optimizer="sgd", lr=1e6, epochs=50, out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged):
            run_training(cfg, clock=FIXED_CLOCK)
    flushed = read_metrics(out)
    assert 0 < len(flushed) < 50


def test_interrupted_run_reraises_and_keeps_its_rows(tmp_path):
    out = tmp_path / "int.csv"
    calls = []

    def clock():
        calls.append(None)
        if len(calls) == 4:  # t0, then one call per recorded row
            raise KeyboardInterrupt
        return 0.0

    with pytest.raises(KeyboardInterrupt):
        run_training(quad_config(out=str(out)), clock=clock)
    assert len(read_metrics(out)) == 2


# a run that SIGKILLs itself from `log` after epoch `kill_after` (argv: kill_after data_dir out)
KILLED_RUN = """
import os, signal, sys
from lqa import bench

kill_after, data_dir, out = int(sys.argv[1]), sys.argv[2], sys.argv[3]
epochs = []

def log(message):
    epochs.append(message)
    if len(epochs) == kill_after:
        os.kill(os.getpid(), signal.SIGKILL)

bench.run_training(bench.TrainConfig(
    model="logreg", dataset="mnist", optimizer="lqa", epochs=4, batch_size=64, seed=4,
    data_dir=data_dir, out=out,
), clock=lambda: 0.0, log=log)
"""


@pytest.mark.parametrize("kill_after", [1, 3])
def test_killed_run_keeps_every_finished_epoch(tmp_path, kill_after):
    data_dir = make_tiny_mnist(tmp_path)
    whole = tmp_path / "whole.csv"
    run_training(TrainConfig(
        model="logreg", dataset="mnist", optimizer="lqa", epochs=4, batch_size=64, seed=4,
        data_dir=str(data_dir), out=str(whole),
    ), clock=FIXED_CLOCK)
    killed = tmp_path / "killed.csv"
    src = os.path.dirname(os.path.dirname(bench.__file__))
    child = subprocess.run(
        [sys.executable, "-c", KILLED_RUN, str(kill_after), str(data_dir), str(killed)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    # the header, then 192 // 64 = 3 rows per finished epoch
    lines = whole.read_bytes().splitlines(keepends=True)
    assert killed.read_bytes() == b"".join(lines[: 1 + 3 * kill_after])
    assert len(read_metrics(killed)) == 3 * kill_after


def test_a_failed_append_is_not_retried(tmp_path, monkeypatch):
    real_emit_csv = bench.emit_csv
    appends = []

    def emit_csv(records, path, append=False):
        if append:
            appends.append(records)
            if len(appends) == 2:  # the disk fills after the second epoch's first row
                real_emit_csv(records[:1], path, append=True)
                raise OSError(errno.ENOSPC, "No space left on device")
        real_emit_csv(records, path, append=append)

    monkeypatch.setattr(bench, "emit_csv", emit_csv)
    out = tmp_path / "full.csv"
    cfg = TrainConfig(
        model="logreg", dataset="mnist", optimizer="sgd", lr=0.1, epochs=3, batch_size=64,
        seed=4, data_dir=str(make_tiny_mnist(tmp_path)), out=str(out),
    )
    with pytest.raises(OSError) as info:
        run_training(cfg, clock=FIXED_CLOCK)
    assert info.value.errno == errno.ENOSPC
    # read with the csv module, not read_metrics, which rejects repeated steps itself
    with open(out, newline="") as f:
        steps = [int(row["batch_step"]) for row in csv.DictReader(f)]
    assert steps == [1, 2, 3, 4]  # the first epoch's 3 rows and the one that fit


def test_unwritable_out_fails_before_the_first_step(tmp_path):
    calls = []

    def clock():
        calls.append(None)
        return 0.0

    with pytest.raises(FileNotFoundError):
        run_training(quad_config(out=str(tmp_path / "missing" / "x.csv")), clock=clock)
    assert calls == []  # the run never started its clock, so no step ran


# perfbench's tracer and checks replace these module attributes from outside
PERFBENCH_HOOKS = (
    (nn, "backward"), (nn, "forward_loss"), (nn, "make_loss_probe"),
    (optim, "lqa_step"), (optim, "make_baseline"),
    (data, "load_mnist"), (data, "epoch_batches"), (bench, "emit_csv"),
)


def test_every_hooked_name_is_called_through_its_module(tmp_path, monkeypatch):
    data_dir = make_tiny_mnist(tmp_path)
    calls = {}

    def recorded(key, fn):
        def wrapper(*args, **kwargs):
            calls.setdefault(key, []).append((args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    for module, name in PERFBENCH_HOOKS:
        key = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name, recorded(key, getattr(module, name)))
    for opt in ("lqa", "sgd"):
        cfg = TrainConfig(
            model="logreg", dataset="mnist", optimizer=opt, lr=0.1, epochs=2,
            batch_size=64, seed=4, data_dir=str(data_dir), out=str(tmp_path / f"{opt}.csv"),
        )
        recs = run_training(cfg, clock=FIXED_CLOCK)
        passed = [args[2] for args, _ in calls.pop("lqa.nn.backward")]
        assert len(passed) == len(recs) == 6
        # the run's own vector, stepped in place: the one array a hook can save
        assert all(p is passed[0] for p in passed)
        # perfbench's bench.emit_csv_ms is the median over exactly these writes:
        # the header, then one append of 3 rows per epoch
        writes = [(len(args[0]), kwargs.get("append", False))
                  for args, kwargs in calls.pop("lqa.bench.emit_csv")]
        assert writes == [(0, False), (3, True), (3, True)]
    assert sorted(calls) == sorted(
        f"{module.__name__}.{name}" for module, name in PERFBENCH_HOOKS
        if name not in ("backward", "emit_csv")
    )


@pytest.mark.parametrize("opt", ["lqa", "sgd", "adam"])
def test_nonfinite_gradient_stops_the_run_before_it_writes(tmp_path, monkeypatch, opt):
    # nn.backward checks only the loss; the optimizer owns the gradient check
    data_dir = make_tiny_mnist(tmp_path)
    real_backward = nn.backward
    seen = []

    def backward(model, batch, params):
        loss, grad = real_backward(model, batch, params)
        seen.append((params, params.copy()))
        if len(seen) == 3:
            grad[0] = np.nan  # a finite loss with one NaN in its gradient
        return loss, grad

    monkeypatch.setattr(nn, "backward", backward)
    out = tmp_path / "nan.csv"
    cfg = TrainConfig(
        model="logreg", dataset="mnist", optimizer=opt, lr=0.1, epochs=2,
        batch_size=64, seed=4, data_dir=str(data_dir), out=str(out),
    )
    with pytest.raises(TrainingDiverged):
        run_training(cfg, clock=FIXED_CLOCK)
    assert len(read_metrics(out)) == 2
    assert len(seen) == 3
    params, before_step_3 = seen[-1]
    assert params.tobytes() == before_step_3.tobytes()


def test_classification_run_mechanics(tmp_path):
    data_dir = make_tiny_mnist(tmp_path)
    cfg = TrainConfig(
        model="logreg",
        dataset="mnist",
        optimizer="lqa",
        epochs=3,
        batch_size=32,
        seed=1,
        data_dir=str(data_dir),
        out=str(tmp_path / "run.csv"),
    )
    recs = run_training(cfg, clock=FIXED_CLOCK)
    # 192 samples, batch 32 -> 6 steps per epoch
    assert len(recs) == 18
    assert [r.batch_step for r in recs] == list(range(1, 19))
    assert all(r.forward_count == 3 * r.backward_count for r in recs)
    # epoch summary column: mean of that epoch's batch losses
    for e in (1, 2, 3):
        epoch_losses = [r.train_loss for r in recs if r.epoch == e]
        last = [r for r in recs if r.epoch == e][-1]
        assert abs(last.epoch_loss - sum(epoch_losses) / len(epoch_losses)) < 1e-12
    # training on the structured toy set actually reduces the loss
    assert epoch_summaries(recs)[-1][1] < epoch_summaries(recs)[0][1]
    # determinism across a fresh process-independent rerun
    recs2 = run_training(cfg, clock=FIXED_CLOCK)
    assert [(r.train_loss, r.lr_used) for r in recs] == [(r.train_loss, r.lr_used) for r in recs2]


def test_every_epoch_scales_into_the_one_buffer_of_the_run(tmp_path, monkeypatch):
    data_dir = make_tiny_mnist(tmp_path)
    pixels = data.read_idx_images(data_dir / "mnist" / "train-images-idx3-ubyte")
    seen = []
    real_backward = nn.backward

    def spying_backward(model, batch, params):
        seen.append((batch.inputs.base, np.array_equal(batch.inputs, pixels[batch.indices] / 255.0)))
        return real_backward(model, batch, params)

    monkeypatch.setattr(bench.nn, "backward", spying_backward)
    cfg = TrainConfig(
        model="logreg", dataset="mnist", optimizer="sgd", lr=0.1, epochs=3,
        batch_size=50, seed=2, data_dir=str(data_dir),
    )
    run_training(cfg, clock=FIXED_CLOCK)
    assert len(seen) == 3 * 3  # 192 // 50 batches per epoch, 42 samples dropped
    buffer = seen[0][0]
    assert buffer.shape == (150, 28, 28) and buffer.dtype == np.float64
    assert all(base is buffer and exact for base, exact in seen)


def test_batch_larger_than_the_set_fails_before_a_buffer_is_allocated(tmp_path):
    data_dir = make_tiny_mnist(tmp_path)
    cfg = TrainConfig(
        model="logreg", dataset="mnist", optimizer="sgd", lr=0.1,
        batch_size=193, data_dir=str(data_dir),
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="batch size 193 exceeds dataset size 192"):
            run_training(cfg, clock=FIXED_CLOCK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float64 copy of the 192 images would be 1.2 MB
    assert peak < 192 * 28 * 28 * 8


@pytest.mark.parametrize("chunk", [1, 5])
def test_chunked_epochs_write_the_csv_of_whole_epoch_chunks(tmp_path, monkeypatch, chunk):
    # 192 images, batch 16: 12 batches per epoch, drawn in chunks of 1, or
    # of 5, 5 and 2, against one chunk of all 12
    data_dir = make_tiny_mnist(tmp_path)
    rows = []
    real_backward = nn.backward

    def spying_backward(model, batch, params):
        rows.append(len(batch.inputs.base))
        return real_backward(model, batch, params)

    monkeypatch.setattr(nn, "backward", spying_backward)
    csvs = {}
    for batches in (12, chunk):
        monkeypatch.setattr(bench, "CHUNK_BYTES", batches * 16 * 784 * 8)
        rows.clear()
        for opt in ("lqa", "adam"):
            out = tmp_path / f"{batches}-{opt}.csv"
            run_training(TrainConfig(
                model="logreg", dataset="mnist", optimizer=opt, lr=0.01, epochs=2,
                batch_size=16, seed=6, data_dir=str(data_dir), out=str(out),
            ), clock=FIXED_CLOCK)
            csvs[batches, opt] = out.read_bytes()
        assert set(rows) == {batches * 16}  # the run's buffer holds `batches` batches
    for opt in ("lqa", "adam"):
        assert csvs[chunk, opt] == csvs[12, opt]


def test_cifar_shaped_run_holds_no_float64_copy_of_its_split(tmp_path):
    data_dir = make_tiny_cifar(tmp_path, per_file=400)
    split = 5 * 400 * 3072  # uint8 bytes of the 2,000-image train split
    cfg = TrainConfig(
        model="logreg", dataset="cifar10", optimizer="lqa",
        epochs=1, batch_size=64, seed=3, data_dir=str(data_dir),
    )
    tracemalloc.start()
    try:
        recs = run_training(cfg, clock=FIXED_CLOCK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(recs) == 2000 // 64
    # loading holds the five files' records and their concatenation at once
    # (two uint8 copies); a run then adds its scaling buffer, CHUNK_BYTES at
    # most, and 1 MB covers the chunk's uint8 gather, the 30,730 parameters
    # and a batch's gradients. A float64 copy of the split is 49 MB.
    bound = 2 * split + bench.CHUNK_BYTES + (1 << 20)
    assert peak < bound < split * 8 / 2


def test_delta0_chains_across_epoch_boundary(tmp_path, monkeypatch):
    data_dir = make_tiny_mnist(tmp_path)
    seen_delta0 = []
    real_step = optim.lqa_step

    def spying_step(params, grad, loss0, probe, state):
        seen_delta0.append(state.delta0)
        return real_step(params, grad, loss0, probe, state)

    monkeypatch.setattr(bench.optim, "lqa_step", spying_step)
    cfg = TrainConfig(
        model="logreg", dataset="mnist", optimizer="lqa", epochs=2,
        batch_size=64, seed=5, data_dir=str(data_dir),
    )
    recs = run_training(cfg, clock=FIXED_CLOCK)
    steps_per_epoch = 192 // 64
    # the rate solved at the last step of epoch 1 seeds epoch 2's first probe
    assert seen_delta0[steps_per_epoch] == recs[steps_per_epoch - 1].lr_used


def test_mlp_and_lenet_paths_run(tmp_path):
    data_dir = make_tiny_mnist(tmp_path)
    for model in ("mlp", "lenet5"):
        cfg = TrainConfig(
            model=model, dataset="mnist", optimizer="adam", lr=1e-3,
            epochs=1, batch_size=64, seed=2, data_dir=str(data_dir),
        )
        recs = run_training(cfg, clock=FIXED_CLOCK)
        assert len(recs) == 3
        assert all(math.isfinite(r.train_loss) for r in recs)


def test_zero_init_classification_starts_at_uniform_loss(tmp_path):
    data_dir = make_tiny_mnist(tmp_path)
    cfg = TrainConfig(
        model="logreg", dataset="mnist", optimizer="lqa", epochs=1,
        batch_size=64, seed=7, init="zeros", data_dir=str(data_dir),
    )
    recs = run_training(cfg, clock=FIXED_CLOCK)
    # zero parameters -> uniform softmax -> the first pre-update loss is ln(10)
    assert abs(recs[0].train_loss - math.log(10.0)) < 1e-12


def make_tiny_cifar(tmp_path, per_file=64):
    rng = np.random.default_rng(5)
    d = tmp_path / "data" / "cifar-10-batches-bin"
    d.mkdir(parents=True)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        labels = rng.integers(0, 10, size=per_file, dtype=np.uint8)
        pixels = rng.integers(0, 256, size=(per_file, 3072), dtype=np.uint8)
        np.concatenate([labels[:, None], pixels], axis=1).tofile(d / name)
    return tmp_path / "data"


def test_cifar_paths_run(tmp_path):
    data_dir = make_tiny_cifar(tmp_path)
    for model, steps in (("logreg", 5), ("lenet5", 5)):
        cfg = TrainConfig(
            model=model, dataset="cifar10", optimizer="lqa",
            epochs=1, batch_size=64, seed=3, data_dir=str(data_dir),
        )
        recs = run_training(cfg, clock=FIXED_CLOCK)
        assert len(recs) == steps  # 5*64 = 320 samples per epoch
        assert all(math.isfinite(r.train_loss) for r in recs)


# --- metric files --------------------------------------------------------------


def test_emit_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    # spelled out: the header is derived from MetricRecord, and README and
    # readers that go by column name depend on these exact names and order
    assert path.read_text() == (
        "epoch,batch_step,train_loss,epoch_loss,lr_used,"
        "lqa_verdict,forward_count,backward_count,wall_time_s\n"
    )


def test_csv_round_trip_exact(tmp_path):
    recs = [
        MetricRecord(1, 1, 1 / 3, 2 / 7, 0.1234567890123456789, "accepted", 3, 1, 0.5),
        # -0.0, the smallest subnormal, the largest double and an int-valued rate
        MetricRecord(2, 7, -0.0, 5e-324, 1, "clamped", 21, 7, 1.7976931348623157e308),
    ]
    path = tmp_path / "two.csv"
    emit_csv(recs, path)
    text = path.read_text().splitlines()
    assert len(text) == 3
    assert all(len(line.split(",")) == 9 for line in text)
    assert text[1:] == [
        "1,1,0.33333333333333331,0.2857142857142857,0.12345678901234568,accepted,3,1,0.5",
        "2,7,-0,4.9406564584124654e-324,1,clamped,21,7,1.7976931348623157e+308",
    ]
    back = read_metrics(path)
    assert back == recs
    assert math.copysign(1.0, back[1].train_loss) == -1.0
    assert type(back[1].lr_used) is float and type(back[1].forward_count) is int


def test_read_metrics_rejects_a_last_line_without_its_newline(tmp_path):
    path = tmp_path / "torn.csv"
    emit_csv([MetricRecord(1, 1, 0.5, 0.5, 0.1, "", 1, 1, 0.25)], path)
    text = path.read_text()
    assert len(read_metrics(path)) == 1
    # a write torn by a kill: the newline gone, then the last number cut short
    for cut in (text[:-1], text[:-3], text[: text.index("\n")]):
        path.write_text(cut)
        with pytest.raises(ValueError, match="no newline"):
            read_metrics(path)


def test_read_metrics_rejects_a_batch_step_that_does_not_increase(tmp_path, capsys):
    recs = [MetricRecord((s + 1) // 2, s, 0.5, 0.5, 0.1, "", s, s, 0.0) for s in (1, 2, 3, 4)]
    retried, pasted = tmp_path / "retried.csv", tmp_path / "pasted.csv"
    emit_csv(recs + recs[2:], retried)  # an append written again: steps 1-4, 3, 4
    emit_csv(recs, pasted)
    emit_csv(recs, pasted, append=True)  # two runs in one file: steps 1-4, 1-4
    for path in (retried, pasted):
        # the header is line 1, so the fifth row is line 6
        with pytest.raises(ValueError, match=f"{path}: line 6: batch_step"):
            read_metrics(path)
        svg = path.with_suffix(".svg")
        assert bench.cli_main(["plot", "--out", str(svg), str(path)]) == 1
        assert f"error: {path}: line 6: batch_step" in capsys.readouterr().err
        assert not svg.exists()


def test_read_metrics_rejects_schema_drift(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("epoch,loss\n1,0.5\n")
    with pytest.raises(ValueError, match="schema"):
        read_metrics(p)


def test_epoch_summaries_takes_last_row_per_epoch():
    recs = [
        MetricRecord(1, 1, 0.5, 0.5, 0.1, "", 1, 1, 0.0),
        MetricRecord(1, 2, 0.3, 0.4, 0.1, "", 2, 2, 0.0),
        MetricRecord(2, 3, 0.2, 0.2, 0.1, "", 3, 3, 0.0),
    ]
    assert epoch_summaries(recs) == [(1, 0.4), (2, 0.2)]


# --- plotting --------------------------------------------------------------------


def flat_csv(tmp_path, name, value=0.25, epochs=4):
    recs = [
        MetricRecord(e, e, value, value, 0.1, "", e, e, 0.0) for e in range(1, epochs + 1)
    ]
    path = tmp_path / name
    emit_csv(recs, path)
    return str(path)


def test_plot_single_flat_series(tmp_path):
    csv_path = flat_csv(tmp_path, "flat.csv")
    out = tmp_path / "plot.svg"
    emit_plot([csv_path], out)
    svg = out.read_text()
    assert svg.count("<polyline") == 1
    # a flat loss is a horizontal line: all y coordinates equal
    pts = svg.split('points="')[1].split('"')[0].split()
    ys = {p.split(",")[1] for p in pts}
    assert len(ys) == 1
    assert "iteration" in svg and "training loss" in svg


def test_plot_two_series_with_legend(tmp_path):
    a = flat_csv(tmp_path, "sgd_run.csv", 0.5)
    b = flat_csv(tmp_path, "lqa_run.csv", 0.2)
    out = tmp_path / "two.svg"
    emit_plot([a, b], out)
    svg = out.read_text()
    assert svg.count("<polyline") == 2
    assert "sgd_run" in svg and "lqa_run" in svg


def test_plot_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError):
        emit_plot([str(bad)], tmp_path / "x.svg")


def test_plot_needs_input():
    with pytest.raises(ValueError):
        emit_plot([], "x.svg")


# --- CLI -------------------------------------------------------------------------


def test_cli_train_quadratic_and_plot(tmp_path):
    out = str(tmp_path / "m.csv")
    code = bench.cli_main(
        [
            "train", "--dataset", "synthetic-quadratic", "--optimizer", "lqa",
            "--epochs", "3", "--seed", "42", "--out", out, "--fixed-clock", "--quiet",
        ]
    )
    assert code == 0
    recs = read_metrics(out)
    assert len(recs) == 3  # full-batch objective: one summary row per epoch
    assert all(r.wall_time_s == 0.0 for r in recs)
    svg_out = str(tmp_path / "m.svg")
    assert bench.cli_main(["plot", "--out", svg_out, out]) == 0
    assert os.path.exists(svg_out)


def test_cli_train_defaults_are_train_config_defaults(tmp_path):
    data_dir = make_tiny_mnist(tmp_path)
    for where in (dict(dataset="synthetic-quadratic"), dict(data_dir=str(data_dir))):
        cli_out, api_out = tmp_path / "cli.csv", tmp_path / "api.csv"
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in where.items()]
        code = bench.cli_main(
            ["train", "--optimizer", "lqa", "--epochs", "2", "--out", str(cli_out),
             "--fixed-clock", "--quiet", *flags]
        )
        assert code == 0
        run_training(TrainConfig(optimizer="lqa", epochs=2, out=str(api_out), **where),
                     clock=FIXED_CLOCK)
        assert cli_out.read_bytes() == api_out.read_bytes()


def test_cli_train_requires_lr_for_sgd(tmp_path):
    code = bench.cli_main(
        [
            "train", "--dataset", "synthetic-quadratic", "--optimizer", "sgd",
            "--epochs", "1", "--out", str(tmp_path / "x.csv"), "--quiet",
        ]
    )
    assert code == 1


def test_cli_train_rejects_infinite_lr(tmp_path, capsys):
    code = bench.cli_main(
        [
            "train", "--dataset", "synthetic-quadratic", "--optimizer", "sgd", "--lr", "inf",
            "--epochs", "1", "--out", str(tmp_path / "x.csv"), "--quiet",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_unknown_flag_fails():
    assert bench.cli_main(["train", "--nonsense"]) != 0


def test_cli_train_offers_no_lqa_settings(capsys):
    # LQA's safeguards and the quadratic's size are constants, not flags
    assert bench.cli_main(["train", "--help"]) == 0
    usage = capsys.readouterr().out
    for flag in ("--delta0", "--delta-min", "--delta-max", "--b-min", "--quad-dim"):
        assert flag not in usage


def test_cli_train_reports_missing_data(tmp_path, capsys):
    code = bench.cli_main(
        [
            "train", "--model", "logreg", "--dataset", "mnist", "--optimizer", "lqa",
            "--epochs", "1", "--data-dir", str(tmp_path), "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("extents", [(2**31 - 1,) * 3, (2**31 - 1, 28, 28)], ids=["huge", "many"])
def test_cli_train_reports_absurd_idx_extents(tmp_path, capsys, extents):
    data_dir = make_tiny_mnist(tmp_path)
    images = data_dir / "mnist" / "train-images-idx3-ubyte"
    images.write_bytes(struct.pack(">iiii", 2051, *extents) + bytes(784))
    code = bench.cli_main(
        [
            "train", "--dataset", "mnist", "--optimizer", "lqa", "--epochs", "1",
            "--data-dir", str(data_dir), "--out", str(tmp_path / "x.csv"), "--quiet",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def _cut_in_half(stream):
    return stream[: len(stream) // 2]


def _reserved_block_type(stream):
    # gzip.compress writes a 10-byte header; setting both BTYPE bits of the
    # first deflate block header makes zlib fail with "invalid block type"
    damaged = bytearray(stream)
    damaged[10] |= 0b110
    return bytes(damaged)


def _bad_crc(stream):
    damaged = bytearray(stream)
    damaged[-8] ^= 0x01  # the trailer's CRC-32 of the uncompressed data
    return bytes(damaged)


@pytest.mark.parametrize(
    "damage", [_cut_in_half, _reserved_block_type, _bad_crc], ids=["truncated", "corrupt", "crc"]
)
def test_cli_train_reports_a_damaged_gz(tmp_path, capsys, damage):
    data_dir = make_tiny_mnist(tmp_path)
    images = data_dir / "mnist" / "train-images-idx3-ubyte"
    archive = images.with_name(images.name + ".gz")
    archive.write_bytes(damage(gzip.compress(images.read_bytes(), mtime=0)))
    images.unlink()
    code = bench.cli_main(
        [
            "train", "--dataset", "mnist", "--optimizer", "lqa", "--epochs", "1",
            "--data-dir", str(data_dir), "--out", str(tmp_path / "x.csv"), "--quiet",
        ]
    )
    assert code == 1
    assert f"error: corrupt gzip stream in {archive}" in capsys.readouterr().err


def test_cli_train_rejects_images_that_are_not_28x28(tmp_path, capsys):
    data_dir = make_tiny_mnist(tmp_path)
    images = data_dir / "mnist" / "train-images-idx3-ubyte"
    write_idx_images(images, np.zeros((192, 20, 20), dtype=np.uint8))
    code = bench.cli_main(
        [
            "train", "--model", "lenet5", "--dataset", "mnist", "--optimizer", "lqa",
            "--epochs", "1", "--data-dir", str(data_dir), "--out", str(tmp_path / "x.csv"),
            "--quiet",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {images} holds 20x20 images, not 28x28" in err


def test_cli_train_reports_out_that_is_a_directory(tmp_path, capsys):
    code = bench.cli_main(
        [
            "train", "--dataset", "synthetic-quadratic", "--optimizer", "lqa",
            "--epochs", "1", "--out", str(tmp_path), "--quiet",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_fetch_reports_unreachable_url(tmp_path, capsys):
    code = bench.cli_main(
        ["fetch", "--dataset", "mnist", "--data-dir", str(tmp_path / "dest"),
         "--base-url", (tmp_path / "nowhere").as_uri()]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_train_reads_only_the_train_split(tmp_path):
    data_dir = make_tiny_mnist(tmp_path)
    assert sorted(os.listdir(data_dir / "mnist")) == [
        "train-images-idx3-ubyte", "train-labels-idx1-ubyte"
    ]
    out = tmp_path / "x.csv"
    code = bench.cli_main(
        [
            "train", "--dataset", "mnist", "--optimizer", "lqa", "--epochs", "1",
            "--data-dir", str(data_dir), "--out", str(out), "--quiet",
        ]
    )
    assert code == 0
    assert len(read_metrics(out)) == 192 // 64


def test_cli_verify_passes():
    assert bench.cli_main(["verify"]) == 0


def test_cli_fetch_mnist_offline(tmp_path, monkeypatch):
    import gzip as gz
    import hashlib

    src = tmp_path / "src"
    src.mkdir()
    rng = np.random.default_rng(0)
    checksums = {}
    for stem, n in (("train", 8), ("t10k", 4)):
        write_idx_images(src / f"{stem}-images-idx3-ubyte", rng.integers(0, 255, (n, 28, 28), dtype=np.uint8))
        write_idx_labels(src / f"{stem}-labels-idx1-ubyte", rng.integers(0, 10, n, dtype=np.uint8))
    archives = tmp_path / "archives"
    archives.mkdir()
    for name in os.listdir(src):
        with open(src / name, "rb") as i, gz.open(archives / (name + ".gz"), "wb") as o:
            o.write(i.read())
        checksums[name + ".gz"] = hashlib.md5((archives / (name + ".gz")).read_bytes()).hexdigest()
    monkeypatch.setattr(bench.data_mod, "MNIST_ARCHIVES", checksums)
    dest = tmp_path / "dest"
    code = bench.cli_main(
        ["fetch", "--dataset", "mnist", "--data-dir", str(dest), "--base-url", archives.as_uri()]
    )
    assert code == 0
    assert os.path.exists(dest / "mnist" / "train-images-idx3-ubyte")


def test_cli_fetch_cifar10_offline(tmp_path, monkeypatch):
    import hashlib
    import tarfile

    src = make_tiny_cifar(tmp_path / "src", per_file=4)
    mirror = tmp_path / "mirror"
    mirror.mkdir()
    archive = mirror / "cifar-10-binary.tar.gz"
    with tarfile.open(archive, "w:gz") as tar:
        tar.add(src / "cifar-10-batches-bin", arcname="cifar-10-batches-bin")
    monkeypatch.setattr(bench.data_mod, "CIFAR10_MD5", hashlib.md5(archive.read_bytes()).hexdigest())
    dest = tmp_path / "dest"
    # --base-url names the directory holding the archive, trailing slash or not
    for base_url in (mirror.as_uri() + "/", mirror.as_uri()):
        code = bench.cli_main(
            ["fetch", "--dataset", "cifar10", "--data-dir", str(dest), "--base-url", base_url]
        )
        assert code == 0
        (train,) = data.load_cifar10(dest)
        assert train.n == 5 * 4
        shutil.rmtree(dest)


# --- malformed inputs: every damaged file ends in exit 0, or in 1 and `error:` ---


def damaged_copies(raw, rng, header_len, samples=8):
    """(case, bytes): raw cut at every header offset and at sampled later offsets,
    then raw with each header bit flipped in turn and with sampled later bits flipped."""
    later = rng.choice(np.arange(header_len, len(raw)), samples, replace=False)
    for cut in [*range(header_len), *sorted(int(i) for i in later)]:
        yield f"cut at byte {cut}", raw[:cut]
    flips = [(i, bit) for i in range(header_len) for bit in range(8)]
    flips += [(int(i), int(rng.integers(8))) for i in rng.integers(header_len, len(raw), samples)]
    for i, bit in flips:
        damaged = bytearray(raw)
        damaged[i] ^= 1 << bit
        yield f"bit {bit} of byte {i} flipped", bytes(damaged)


def assert_ends_cleanly(capsys, argv, case):
    code = bench.cli_main(argv)  # an exception escaping it fails the test
    err = capsys.readouterr().err
    assert code in (0, 1), case
    assert code == 0 or "error:" in err, case


def sweep_damaged_file(capsys, path, header_len, argv):
    raw = path.read_bytes()
    rng = np.random.default_rng(len(raw))
    for case, damaged in damaged_copies(raw, rng, header_len):
        path.write_bytes(damaged)
        assert_ends_cleanly(capsys, argv, f"{path.name}: {case}")
    path.write_bytes(raw)


def train_argv(tmp_path, data_dir, dataset):
    return [
        "train", "--dataset", dataset, "--optimizer", "lqa", "--epochs", "1",
        "--data-dir", str(data_dir), "--out", str(tmp_path / "sweep.csv"), "--quiet",
    ]


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gz"])
@pytest.mark.parametrize(
    "stem,header_len", [("train-images-idx3-ubyte", 16), ("train-labels-idx1-ubyte", 8)]
)
def test_cli_train_ends_cleanly_on_damaged_idx(tmp_path, capsys, stem, header_len, compressed):
    data_dir = make_tiny_mnist(tmp_path, n_train=128)
    path = data_dir / "mnist" / stem
    if compressed:
        gz = path.with_name(stem + ".gz")
        gz.write_bytes(gzip.compress(path.read_bytes(), mtime=0))
        path.unlink()
        path, header_len = gz, 10  # the gzip member's fixed header
    sweep_damaged_file(capsys, path, header_len, train_argv(tmp_path, data_dir, "mnist"))


def test_cli_train_ends_cleanly_on_a_damaged_cifar_batch(tmp_path, capsys):
    data_dir = make_tiny_cifar(tmp_path)
    path = data_dir / "cifar-10-batches-bin" / "data_batch_1.bin"
    # a record's first byte is its label: flipping its bits makes labels out of range
    sweep_damaged_file(capsys, path, 1, train_argv(tmp_path, data_dir, "cifar10"))


def test_cli_plot_ends_cleanly_on_damaged_csvs(tmp_path, capsys):
    path = tmp_path / "run.csv"
    flat_csv(tmp_path, path.name, epochs=3)
    text = path.read_text()
    argv = ["plot", "--out", str(tmp_path / "run.svg"), str(path)]
    rows = text.splitlines(keepends=True)
    cases = [(f"cut at byte {cut}", text[:cut]) for cut in range(len(text))]
    for r, row in enumerate(rows):
        cells = row.rstrip("\r\n").split(",")
        for name, shifted in (
            ("first cell dropped", cells[1:]),
            ("empty cell prepended", ["", *cells]),
            ("cells shifted right", ["", *cells[:-1]]),
            ("cells shifted left", [*cells[1:], ""]),
        ):
            damaged = "".join([*rows[:r], ",".join(shifted) + "\n", *rows[r + 1 :]])
            cases.append((f"row {r}: {name}", damaged))
    for case, damaged in cases:
        path.write_text(damaged)
        assert_ends_cleanly(capsys, argv, case)
    # each row ends its epoch; a non-finite epoch_loss (column 3) has no place on the chart
    for r in range(1, len(rows)):
        for bad in ("inf", "-inf", "nan"):
            cells = rows[r].rstrip("\r\n").split(",")
            cells[3] = bad
            path.write_text("".join([*rows[:r], ",".join(cells) + "\n", *rows[r + 1 :]]))
            assert bench.cli_main(argv) == 1, (r, bad)
            assert f"error: {path} has a non-finite epoch_loss" in capsys.readouterr().err
