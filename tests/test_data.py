import gzip
import hashlib
import os
import struct
import tarfile

import numpy as np
import pytest

from lqa.data import (
    Batch,
    Dataset,
    epoch_batches,
    fetch_cifar10,
    fetch_mnist,
    load_cifar10,
    load_mnist,
    read_idx_images,
    read_idx_labels,
    synthetic_quadratic,
    write_idx_images,
    write_idx_labels,
)
from lqa.tensor import Rng


def make_mnist_dir(tmp_path, n_train=96, n_test=32, seed=0):
    """A miniature dataset directory in the real IDX layout."""
    rng = np.random.default_rng(seed)
    d = tmp_path / "mnist"
    d.mkdir(parents=True, exist_ok=True)
    splits = {}
    for stem, n in (("train", n_train), ("t10k", n_test)):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        write_idx_images(d / f"{stem}-images-idx3-ubyte", images)
        write_idx_labels(d / f"{stem}-labels-idx1-ubyte", labels)
        splits[stem] = (images, labels)
    return d, splits


def test_idx_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
    path = tmp_path / "imgs"
    write_idx_images(path, images)
    loaded = read_idx_images(path)
    assert np.array_equal(loaded, images)
    path2 = tmp_path / "again"
    write_idx_images(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_loaded_dataset_reserializes_to_original_bytes(tmp_path):
    # /255 scaling loses nothing: scaled inputs map back to the exact file bytes
    d, _ = make_mnist_dir(tmp_path)
    train, _ = load_mnist(d)
    recovered = np.round(train.inputs * 255.0).astype(np.uint8)
    out = tmp_path / "rebuilt"
    write_idx_images(out, recovered)
    assert out.read_bytes() == (d / "train-images-idx3-ubyte").read_bytes()


def test_default_data_dir_env_override(tmp_path, monkeypatch):
    from lqa.data import default_data_dir

    monkeypatch.setenv("LQA_DATA_DIR", str(tmp_path))
    assert default_data_dir() == str(tmp_path)
    monkeypatch.delenv("LQA_DATA_DIR")
    assert default_data_dir() == os.path.join(os.getcwd(), "data")


def test_idx_matches_byte_level_reference(tmp_path):
    d, splits = make_mnist_dir(tmp_path)
    raw = (d / "train-labels-idx1-ubyte").read_bytes()
    magic, count = struct.unpack(">ii", raw[:8])
    assert magic == 2049 and count == 96
    assert raw[8] == splits["train"][1][0]  # first label, straight from the bytes
    labels = read_idx_labels(d / "train-labels-idx1-ubyte")
    assert labels[0] == raw[8]

    raw_img = (d / "train-images-idx3-ubyte").read_bytes()
    magic, count, rows, cols = struct.unpack(">iiii", raw_img[:16])
    assert (magic, rows, cols) == (2051, 28, 28)
    first_row = np.frombuffer(raw_img[16 : 16 + 28], dtype=np.uint8)
    assert np.array_equal(read_idx_images(d / "train-images-idx3-ubyte")[0, 0], first_row)


def test_idx_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(struct.pack(">iiii", 1234, 1, 28, 28) + b"\x00" * 784)
    with pytest.raises(ValueError, match="magic"):
        read_idx_images(p)


def test_idx_truncated_payload_rejected(tmp_path):
    p = tmp_path / "trunc"
    p.write_bytes(struct.pack(">iiii", 2051, 2, 28, 28) + b"\x00" * 784)
    with pytest.raises(ValueError, match="mismatch"):
        read_idx_images(p)


def test_idx_trailing_garbage_rejected(tmp_path):
    p = tmp_path / "long"
    p.write_bytes(struct.pack(">ii", 2049, 2) + b"\x00" * 3)
    with pytest.raises(ValueError, match="mismatch"):
        read_idx_labels(p)


def test_load_mnist_shapes_scaling_and_gz(tmp_path):
    d, splits = make_mnist_dir(tmp_path)
    train, test = load_mnist(d)
    assert train.n == 96 and test.n == 32
    assert train.inputs.shape == (96, 28, 28)
    assert train.inputs.min() >= 0.0 and train.inputs.max() <= 1.0
    assert np.array_equal(train.labels, splits["train"][1].astype(np.int64))
    assert np.allclose(train.inputs, splits["train"][0] / 255.0)

    # gzip variants load identically
    gz = tmp_path / "gz" / "mnist"
    gz.mkdir(parents=True)
    for name in os.listdir(d):
        with open(d / name, "rb") as src, gzip.open(gz / (name + ".gz"), "wb") as dst:
            dst.write(src.read())
    train_gz, _ = load_mnist(gz)
    assert np.array_equal(train_gz.inputs, train.inputs)


def test_load_mnist_count_mismatch_rejected(tmp_path):
    d, _ = make_mnist_dir(tmp_path)
    labels = read_idx_labels(d / "train-labels-idx1-ubyte")
    write_idx_labels(d / "train-labels-idx1-ubyte", labels[:-1])
    with pytest.raises(ValueError, match="labels"):
        load_mnist(d)


def test_load_mnist_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_mnist(tmp_path)


# --- CIFAR-10 binary ---------------------------------------------------------


def make_cifar_dir(tmp_path, per_file=7, seed=3):
    rng = np.random.default_rng(seed)
    d = tmp_path / "cifar-10-batches-bin"
    d.mkdir(parents=True)
    store = {}
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    for name in names:
        labels = rng.integers(0, 10, size=per_file, dtype=np.uint8)
        pixels = rng.integers(0, 256, size=(per_file, 3072), dtype=np.uint8)
        recs = np.concatenate([labels[:, None], pixels], axis=1)
        assert recs.shape[1] == 3073  # the published record stride
        recs.tofile(d / name)
        store[name] = (labels, pixels)
    return tmp_path, store


def test_load_cifar10_record_layout(tmp_path):
    base, store = make_cifar_dir(tmp_path)
    train, test = load_cifar10(base)
    assert train.n == 35 and test.n == 7
    assert train.inputs.shape == (35, 3, 32, 32)
    assert train.classes == 10
    labels, pixels = store["data_batch_1.bin"]
    assert train.labels[0] == labels[0]
    # channel-planar: first 1024 payload bytes are the red plane
    red = pixels[0, :1024].reshape(32, 32) / 255.0
    assert np.allclose(train.inputs[0, 0], red)


def test_load_cifar10_truncated_rejected(tmp_path):
    base, _ = make_cifar_dir(tmp_path)
    path = base / "cifar-10-batches-bin" / "data_batch_2.bin"
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match="3073"):
        load_cifar10(base)


# --- batching ------------------------------------------------------------------


def toy_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, 4)), rng.integers(0, 3, size=n), 3)


def test_epoch_batches_exact_cover():
    ds = toy_dataset(128)
    batches = epoch_batches(ds, 64, Rng(1))
    assert len(batches) == 2
    ids = np.concatenate([b.indices for b in batches])
    assert np.array_equal(np.sort(ids), np.arange(128))
    assert all(len(b.indices) == 64 for b in batches)


def test_epoch_batches_drops_remainder():
    ds = toy_dataset(130)
    batches = epoch_batches(ds, 64, Rng(2))
    assert len(batches) == 2
    ids = np.concatenate([b.indices for b in batches])
    assert len(ids) == 128 and len(set(ids.tolist())) == 128


def test_epoch_batches_deterministic_and_reshuffled():
    ds = toy_dataset(96)
    a = epoch_batches(ds, 32, Rng(7))
    b = epoch_batches(ds, 32, Rng(7))
    for x, y in zip(a, b):
        assert np.array_equal(x.indices, y.indices)
    rng = Rng(7)
    first = epoch_batches(ds, 32, rng)
    second = epoch_batches(ds, 32, rng)  # same rng advanced: fresh permutation
    assert not all(np.array_equal(x.indices, y.indices) for x, y in zip(first, second))


def test_epoch_batches_resolves_inputs():
    ds = toy_dataset(20)
    (batch,) = epoch_batches(ds, 20, Rng(0))
    assert np.array_equal(batch.inputs, ds.inputs[batch.indices])
    assert np.array_equal(batch.labels, ds.labels[batch.indices])


def test_epoch_batches_validates_sizes():
    ds = toy_dataset(10)
    with pytest.raises(ValueError):
        epoch_batches(ds, 11, Rng(0))
    with pytest.raises(ValueError):
        epoch_batches(ds, 0, Rng(0))


def test_dataset_validates_labels():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 3)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), 3)


# --- synthetic quadratic ---------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 5, 10])
def test_synthetic_quadratic_is_spd_with_bounded_spectrum(dim):
    q = synthetic_quadratic(dim, seed=dim * 11 + 1)
    assert float(np.abs(q.A - q.A.T).max()) <= 1e-12
    eig = np.linalg.eigvalsh(q.A)
    assert eig[0] > 0.0
    assert eig[0] > 0.1 - 1e-9 and eig[-1] < 10.0 + 1e-9


def test_synthetic_quadratic_dim_one():
    q = synthetic_quadratic(1, 4)
    assert q.A.shape == (1, 1) and q.A[0, 0] > 0.0


def test_synthetic_quadratic_seed_deterministic():
    a = synthetic_quadratic(4, 9)
    b = synthetic_quadratic(4, 9)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.c, b.c)
    c = synthetic_quadratic(4, 10)
    assert not np.array_equal(a.A, c.A)


# --- fetch (exercised offline through file:// URLs) -----------------------------


def test_fetch_mnist_verifies_and_decompresses(tmp_path):
    src_dir, _ = make_mnist_dir(tmp_path / "src")
    archive_dir = tmp_path / "archives"
    archive_dir.mkdir()
    checksums = {}
    for name in os.listdir(src_dir):
        gz_name = name + ".gz"
        with open(src_dir / name, "rb") as f_in, gzip.open(archive_dir / gz_name, "wb") as f_out:
            f_out.write(f_in.read())
        checksums[gz_name] = hashlib.md5((archive_dir / gz_name).read_bytes()).hexdigest()

    dest = tmp_path / "dest"
    fetch_mnist(str(dest), base_url=archive_dir.as_uri(), checksums=checksums)
    train, test = load_mnist(dest)
    assert train.n == 96 and test.n == 32


def test_fetch_mnist_checksum_mismatch(tmp_path):
    src_dir, _ = make_mnist_dir(tmp_path / "src")
    archive_dir = tmp_path / "archives"
    archive_dir.mkdir()
    checksums = {}
    for name in os.listdir(src_dir):
        gz_name = name + ".gz"
        with open(src_dir / name, "rb") as f_in, gzip.open(archive_dir / gz_name, "wb") as f_out:
            f_out.write(f_in.read())
        checksums[gz_name] = "0" * 32
    with pytest.raises(ValueError, match="checksum"):
        fetch_mnist(str(tmp_path / "dest"), base_url=archive_dir.as_uri(), checksums=checksums)


def test_fetch_cifar10_extracts_expected_members(tmp_path):
    base, _ = make_cifar_dir(tmp_path / "src")
    tar_path = tmp_path / "cifar-10-binary.tar.gz"
    with tarfile.open(tar_path, "w:gz") as tar:
        tar.add(base / "cifar-10-batches-bin", arcname="cifar-10-batches-bin")
    md5 = hashlib.md5(tar_path.read_bytes()).hexdigest()

    dest = tmp_path / "dest"
    out = fetch_cifar10(str(dest), url=tar_path.as_uri(), md5=md5)
    train, test = load_cifar10(out)
    assert train.n == 35 and test.n == 7


# --- checks against the real datasets, when fetched ------------------------------

_REPO_DATA = os.environ.get(
    "LQA_DATA_DIR", os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")
)


def test_real_mnist_counts_and_layout():
    mnist_dir = os.path.join(_REPO_DATA, "mnist")
    try:
        train, test = load_mnist(mnist_dir)
    except FileNotFoundError:
        pytest.skip(f"real MNIST not fetched under {mnist_dir}")
    assert train.n + test.n == 70_000
    assert train.n == 60_000 and test.n == 10_000
    assert train.inputs.shape[1:] == (28, 28)
    assert np.unique(train.labels).size == 10
    # first training label straight from the file bytes
    raw = open(os.path.join(mnist_dir, "train-labels-idx1-ubyte"), "rb").read(9)
    assert train.labels[0] == raw[8]


def test_real_cifar10_counts():
    try:
        train, test = load_cifar10(_REPO_DATA)
    except FileNotFoundError:
        pytest.skip(f"real CIFAR-10 not fetched under {_REPO_DATA}")
    assert train.n + test.n == 60_000
    assert train.classes == 10
    assert train.inputs.shape[1:] == (3, 32, 32)
