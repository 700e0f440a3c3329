import gzip
import hashlib
import inspect
import os
import shutil
import struct
import tarfile
import tracemalloc

import numpy as np
import pytest

from lqa import data
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


def epoch_buffer(dataset, n):
    """The float64 buffer a run allocates once for epoch_batches(dataset, n, ...)."""
    return np.empty((dataset.n // n * n, *dataset.inputs.shape[1:]))


def test_loaded_dataset_reserializes_to_original_bytes(tmp_path):
    # the loader keeps the file's uint8 pixels, and /255 scaling loses nothing:
    # scaled batch inputs map back to the exact file bytes
    d, _ = make_mnist_dir(tmp_path)
    (train,) = load_mnist(d)
    assert train.inputs.dtype == np.uint8
    out = tmp_path / "rebuilt"
    write_idx_images(out, train.inputs)
    assert out.read_bytes() == (d / "train-images-idx3-ubyte").read_bytes()

    (batch,) = epoch_batches(train, 96, Rng(0), epoch_buffer(train, 96))
    assert np.array_equal(batch.inputs, train.inputs[batch.indices] / 255.0)
    recovered = np.empty_like(train.inputs)
    recovered[batch.indices] = np.round(batch.inputs * 255.0).astype(np.uint8)
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


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
@pytest.mark.parametrize("extents", [(2**31 - 1,) * 3, (2**31 - 1, 28, 28)], ids=["huge", "many"])
def test_idx_absurd_extents_rejected(tmp_path, extents, gz):
    # the first read overflows an index, the second asks for about 1.7 TB
    p = tmp_path / ("images.gz" if gz else "images")
    with (gzip.open if gz else open)(p, "wb") as f:
        f.write(struct.pack(">iiii", 2051, *extents) + b"\x00" * 784)
    with pytest.raises(ValueError):
        read_idx_images(p)


@pytest.mark.parametrize(
    "read, header, match",
    [
        (read_idx_images, struct.pack(">iii", 2051, 1, 28), "truncated"),
        (read_idx_images, struct.pack(">iiii", 2051, 1, 0, 28), "implausible"),
        (read_idx_labels, struct.pack(">ii", 2049, -1), "implausible"),
    ],
    ids=["truncated-header", "zero-rows", "negative-count"],
)
def test_idx_malformed_header_rejected(tmp_path, read, header, match):
    p = tmp_path / "idx"
    p.write_bytes(header)
    with pytest.raises(ValueError, match=match):
        read(p)


def test_idx_write_rejects_wrong_rank(tmp_path):
    with pytest.raises(ValueError, match="rank 1"):
        write_idx_labels(tmp_path / "labels", np.zeros((3, 2)))
    with pytest.raises(ValueError, match="rank 3"):
        write_idx_images(tmp_path / "images", np.zeros((3, 784)))
    assert list(tmp_path.iterdir()) == []


def test_load_mnist_shapes_scaling_and_gz(tmp_path):
    d, splits = make_mnist_dir(tmp_path)
    (train,) = load_mnist(d)
    assert train.n == 96
    assert train.inputs.shape == (96, 28, 28)
    assert train.inputs.dtype == np.uint8
    assert np.array_equal(train.inputs, splits["train"][0])
    assert np.array_equal(train.labels, splits["train"][1].astype(np.int64))
    # the batches carry the bits the loader's old astype(float64) / 255.0 gave
    batches = epoch_batches(train, 32, Rng(3), epoch_buffer(train, 32))
    for b in batches:
        assert b.inputs.dtype == np.float64
        assert b.inputs.min() >= 0.0 and b.inputs.max() <= 1.0
        assert np.array_equal(b.inputs, splits["train"][0][b.indices] / 255.0)
        assert np.array_equal(b.inputs, splits["train"][0][b.indices].astype(np.float64) / 255.0)

    # gzip variants load identically
    gz = tmp_path / "gz" / "mnist"
    gz.mkdir(parents=True)
    for name in os.listdir(d):
        with open(d / name, "rb") as src, gzip.open(gz / (name + ".gz"), "wb") as dst:
            dst.write(src.read())
    (train_gz,) = load_mnist(gz)
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
    (train,) = load_cifar10(base)
    assert train.n == 35
    assert train.inputs.shape == (35, 3, 32, 32)
    assert train.inputs.dtype == np.uint8
    assert train.classes == 10
    labels, pixels = store["data_batch_1.bin"]
    assert train.labels[0] == labels[0]
    # channel-planar: first 1024 payload bytes are the red plane
    assert np.array_equal(train.inputs[0, 0], pixels[0, :1024].reshape(32, 32))
    all_pixels = np.concatenate([store[f"data_batch_{i}.bin"][1] for i in range(1, 6)])
    (batch,) = epoch_batches(train, 35, Rng(4), epoch_buffer(train, 35))
    assert np.array_equal(batch.inputs, all_pixels[batch.indices].reshape(-1, 3, 32, 32) / 255.0)


def test_load_cifar10_needs_no_test_batch(tmp_path):
    base, _ = make_cifar_dir(tmp_path)
    (base / "cifar-10-batches-bin" / "test_batch.bin").unlink()
    (train,) = load_cifar10(base)
    assert train.n == 35


def test_load_cifar10_truncated_rejected(tmp_path):
    base, _ = make_cifar_dir(tmp_path)
    path = base / "cifar-10-batches-bin" / "data_batch_2.bin"
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match="3073"):
        load_cifar10(base)


def test_load_cifar10_holds_its_split_once(tmp_path):
    base, store = make_cifar_dir(tmp_path, per_file=400)
    tracemalloc.start()
    try:
        (train,) = load_cifar10(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    split_bytes = 5 * 400 * 3073  # the five files' records
    # reading each file whole and then concatenating them holds the split twice
    assert peak < 1.1 * split_bytes
    names = [f"data_batch_{i}.bin" for i in range(1, 6)]
    pixels = np.concatenate([store[name][1] for name in names])
    assert np.array_equal(train.inputs, pixels.reshape(-1, 3, 32, 32))
    assert np.array_equal(train.labels, np.concatenate([store[name][0] for name in names]))


@pytest.mark.parametrize("damage", ["missing", "empty"])
def test_load_cifar10_rejects_a_missing_or_empty_file(tmp_path, damage):
    base, _ = make_cifar_dir(tmp_path)
    path = base / "cifar-10-batches-bin" / "data_batch_4.bin"
    if damage == "missing":
        path.unlink()
        with pytest.raises(FileNotFoundError, match="data_batch_4.bin"):
            load_cifar10(base)
    else:
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="3073"):
            load_cifar10(base)


@pytest.mark.parametrize("records", [-1, 1])
def test_load_cifar10_rejects_a_file_that_changed_size_after_its_check(tmp_path, monkeypatch, records):
    # the sizes are checked, and the split allocated, before any file is read
    base, _ = make_cifar_dir(tmp_path)
    getsize = os.path.getsize

    def checked_size(path):
        return getsize(path) + (records * 3073 if path.endswith("data_batch_3.bin") else 0)

    monkeypatch.setattr(data.os.path, "getsize", checked_size)
    with pytest.raises(ValueError, match="data_batch_3.bin changed size"):
        load_cifar10(base)


# --- batching ------------------------------------------------------------------


def test_loaders_hand_out_read_only_arrays(tmp_path):
    d, _ = make_mnist_dir(tmp_path / "m")
    base, _ = make_cifar_dir(tmp_path / "c")
    for (train,) in (load_mnist(d), load_cifar10(base)):
        for array in (train.inputs, train.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


def toy_dataset(n, seed=0):
    """n four-pixel uint8 images, as the loaders store them."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.integers(0, 256, size=(n, 4), dtype=np.uint8), rng.integers(0, 3, size=n), 3)


def test_epoch_batches_exact_cover():
    ds = toy_dataset(128)
    batches = list(epoch_batches(ds, 64, Rng(1), epoch_buffer(ds, 64)))
    assert len(batches) == 2
    ids = np.concatenate([b.indices for b in batches])
    assert np.array_equal(np.sort(ids), np.arange(128))
    assert all(len(b.indices) == 64 for b in batches)


def test_epoch_batches_drops_remainder():
    ds = toy_dataset(130)
    out = np.full((128, 4), np.nan)  # K*n rows: no room for the 2 left over
    batches = list(epoch_batches(ds, 64, Rng(2), out))
    assert len(batches) == 2
    ids = np.concatenate([b.indices for b in batches])
    assert len(ids) == 128 and len(set(ids.tolist())) == 128
    # every row of the buffer holds a kept sample, in batch order
    assert np.array_equal(out, ds.inputs[ids] / 255.0)


def test_epoch_batches_deterministic_and_reshuffled():
    ds = toy_dataset(96)
    a = epoch_batches(ds, 32, Rng(7), epoch_buffer(ds, 32))
    b = epoch_batches(ds, 32, Rng(7), epoch_buffer(ds, 32))
    for x, y in zip(a, b):
        assert np.array_equal(x.indices, y.indices)
    rng = Rng(7)
    first = epoch_batches(ds, 32, rng, epoch_buffer(ds, 32))
    second = epoch_batches(ds, 32, rng, epoch_buffer(ds, 32))  # same rng advanced: fresh permutation
    assert not all(np.array_equal(x.indices, y.indices) for x, y in zip(first, second))


def test_epoch_batches_resolves_inputs():
    ds = toy_dataset(20)
    assert ds.inputs.dtype == np.uint8
    (batch,) = epoch_batches(ds, 20, Rng(0), epoch_buffer(ds, 20))
    assert batch.inputs.dtype == np.float64
    assert np.array_equal(batch.inputs, ds.inputs[batch.indices] / 255.0)
    assert np.array_equal(batch.labels, ds.labels[batch.indices])


def test_consecutive_epochs_share_one_buffer():
    ds = toy_dataset(96)
    out = epoch_buffer(ds, 32)
    rng = Rng(5)
    first = list(epoch_batches(ds, 32, rng, out))  # out holds the whole epoch: one chunk
    first_inputs = [b.inputs.copy() for b in first]
    second = list(epoch_batches(ds, 32, rng, out))
    for i, (a, b) in enumerate(zip(first, second)):
        # batch i of every epoch is the same contiguous rows of the one buffer
        for batch in (a, b):
            assert batch.inputs.base is out and batch.inputs.flags.c_contiguous
            assert np.shares_memory(batch.inputs, out[i * 32 : (i + 1) * 32])
        assert np.array_equal(b.inputs, ds.inputs[b.indices] / 255.0)
        # the second epoch overwrote the first epoch's inputs in place
        assert a.inputs is not b.inputs and np.array_equal(a.inputs, b.inputs)
    assert not all(np.array_equal(x, b.inputs) for x, b in zip(first_inputs, second))


def test_two_epochs_allocate_far_less_than_a_float64_copy():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.integers(0, 256, size=(6400, 28, 28), dtype=np.uint8),
                 rng.integers(0, 10, size=6400), 10)
    out = np.empty((20 * 64, 28, 28))  # the 8 MB chunk a run sizes for 64-image MNIST batches
    order = Rng(1)
    tracemalloc.start()
    try:
        epochs = [list(epoch_batches(ds, 64, order, out)) for _ in range(2)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(epochs[1]) == 100
    # one float64 copy of the set is 40 MB; even its uint8 pixels are 5 MB
    assert peak < ds.inputs.nbytes < out.nbytes


def test_epoch_batches_validates_sizes():
    ds = toy_dataset(10)
    # a batch larger than the set leaves no whole batch, so a run's buffer has no rows
    with pytest.raises(ValueError, match="batch size 11 exceeds dataset size 10"):
        epoch_batches(ds, 11, Rng(0), epoch_buffer(ds, 11))
    with pytest.raises(ValueError):
        epoch_batches(ds, 0, Rng(0), np.empty((0, 4)))


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunked_epoch_draws_the_batches_of_one_chunk(chunk):
    # 45 images, batch 4: 11 batches, in chunks of 1, or of 3, 3, 3 and 2
    ds = toy_dataset(45, seed=8)
    whole = [b.indices for b in epoch_batches(ds, 4, Rng(9), epoch_buffer(ds, 4))]
    out = np.empty((chunk * 4, 4))
    drawn = []
    for batch in epoch_batches(ds, 4, Rng(9), out):
        # checked as drawn: the next chunk overwrites these inputs
        assert np.shares_memory(batch.inputs, out)
        assert batch.inputs.tobytes() == (ds.inputs[batch.indices] / 255.0).tobytes()
        assert np.array_equal(batch.labels, ds.labels[batch.indices])
        drawn.append(batch.indices)
    assert len(drawn) == 11
    assert all(np.array_equal(a, b) for a, b in zip(drawn, whole, strict=True))
    assert len(set(np.concatenate(drawn).tolist())) == 44


@pytest.mark.parametrize("rows", [0, 3, 6])
def test_epoch_batches_rejects_a_buffer_of_no_whole_batches(rows):
    ds = toy_dataset(20)
    with pytest.raises(ValueError, match=f"buffer of {rows} rows"):
        epoch_batches(ds, 4, Rng(0), np.empty((rows, 4)))


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


@pytest.mark.parametrize("dim", [0, -3])
def test_synthetic_quadratic_rejects_dim_below_one(dim):
    with pytest.raises(ValueError, match="dim must be at least 1"):
        synthetic_quadratic(dim, 4)


def test_synthetic_quadratic_seed_deterministic():
    a = synthetic_quadratic(4, 9)
    b = synthetic_quadratic(4, 9)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.c, b.c)
    c = synthetic_quadratic(4, 10)
    assert not np.array_equal(a.A, c.A)


# --- fetch (exercised offline through file:// URLs) -----------------------------


def make_mnist_archives(tmp_path, monkeypatch):
    """make_mnist_dir's four files gzipped under tmp_path/archives, their md5s
    pinned as fetch_mnist's MNIST_ARCHIVES for the test."""
    src_dir, _ = make_mnist_dir(tmp_path / "src")
    archive_dir = tmp_path / "archives"
    archive_dir.mkdir()
    checksums = {}
    for name in os.listdir(src_dir):
        gz_name = name + ".gz"
        with open(src_dir / name, "rb") as f_in, gzip.open(archive_dir / gz_name, "wb") as f_out:
            f_out.write(f_in.read())
        checksums[gz_name] = hashlib.md5((archive_dir / gz_name).read_bytes()).hexdigest()
    monkeypatch.setattr(data, "MNIST_ARCHIVES", checksums)
    return archive_dir


def make_cifar_archive(tmp_path, monkeypatch):
    """make_cifar_dir's six files in tmp_path/mirror/cifar-10-binary.tar.gz, its
    md5 pinned as fetch_cifar10's CIFAR10_MD5 for the test; returns the mirror."""
    base, _ = make_cifar_dir(tmp_path / "src")
    mirror = tmp_path / "mirror"
    mirror.mkdir()
    tar_path = mirror / "cifar-10-binary.tar.gz"
    with tarfile.open(tar_path, "w:gz") as tar:
        tar.add(base / "cifar-10-batches-bin", arcname="cifar-10-batches-bin")
    monkeypatch.setattr(data, "CIFAR10_MD5", hashlib.md5(tar_path.read_bytes()).hexdigest())
    return mirror


def interrupt_copy(monkeypatch, n):
    """Stop the n-th file copy with KeyboardInterrupt after it wrote 8 bytes;
    later copies run whole."""
    real, calls = shutil.copyfileobj, []

    def copy(src, dst, *args):
        calls.append(None)
        if len(calls) == n:
            dst.write(src.read(8))
            raise KeyboardInterrupt
        return real(src, dst, *args)

    monkeypatch.setattr(shutil, "copyfileobj", copy)


def test_fetchers_take_a_directory_url_and_nothing_else():
    for fetch, default in ((fetch_mnist, data.MNIST_BASE_URL), (fetch_cifar10, data.CIFAR10_BASE_URL)):
        params = inspect.signature(fetch).parameters
        assert list(params) == ["directory", "base_url"]
        assert params["base_url"].default == default


def test_fetch_mnist_verifies_and_decompresses(tmp_path, monkeypatch):
    archive_dir = make_mnist_archives(tmp_path, monkeypatch)
    dest = tmp_path / "dest"
    fetch_mnist(str(dest), base_url=archive_dir.as_uri())
    (train,) = load_mnist(dest)
    assert train.n == 96
    # fetch still decompresses the test split the loader does not read
    assert len(read_idx_labels(dest / "t10k-labels-idx1-ubyte")) == 32


def test_fetch_mnist_checksum_mismatch(tmp_path, monkeypatch):
    archive_dir = make_mnist_archives(tmp_path, monkeypatch)
    monkeypatch.setattr(data, "MNIST_ARCHIVES", dict.fromkeys(data.MNIST_ARCHIVES, "0" * 32))
    with pytest.raises(ValueError, match="checksum"):
        fetch_mnist(str(tmp_path / "dest"), base_url=archive_dir.as_uri())


@pytest.mark.parametrize("cut", [1, 2], ids=["download", "decompression"])
def test_fetch_mnist_interrupted_leaves_no_file_under_its_final_name(tmp_path, monkeypatch, cut):
    archive_dir = make_mnist_archives(tmp_path, monkeypatch)
    dest = tmp_path / "dest"
    first = next(iter(data.MNIST_ARCHIVES))  # the archive fetch_mnist takes first
    interrupt_copy(monkeypatch, cut)
    with pytest.raises(KeyboardInterrupt):
        fetch_mnist(str(dest), base_url=archive_dir.as_uri())
    left = [first + ".part"] if cut == 1 else [first, first[: -len(".gz")] + ".part"]
    assert sorted(os.listdir(dest)) == sorted(left)
    fetch_mnist(str(dest), base_url=archive_dir.as_uri())
    assert load_mnist(dest)[0].n == 96
    assert not [name for name in os.listdir(dest) if name.endswith(".part")]


def test_fetch_mnist_keeps_files_already_decompressed(tmp_path, monkeypatch):
    archive_dir = make_mnist_archives(tmp_path, monkeypatch)
    dest = tmp_path / "dest"
    fetch_mnist(str(dest), base_url=archive_dir.as_uri())
    # with every IDX file there, no archive is fetched or even read
    for name in os.listdir(dest):
        if name.endswith(".gz"):
            (dest / name).unlink()
    fetch_mnist(str(dest), base_url=(tmp_path / "nowhere").as_uri())
    assert load_mnist(dest)[0].n == 96
    assert not [name for name in os.listdir(dest) if name.endswith(".gz")]


def test_fetch_cifar10_extracts_expected_members(tmp_path, monkeypatch):
    mirror = make_cifar_archive(tmp_path, monkeypatch)
    dest = tmp_path / "dest"
    out = fetch_cifar10(str(dest), base_url=mirror.as_uri())
    (train,) = load_cifar10(out)
    assert train.n == 35
    assert os.path.getsize(os.path.join(out, "test_batch.bin")) == 7 * 3073


def test_fetch_cifar10_keeps_a_complete_batch_directory(tmp_path, monkeypatch):
    mirror = make_cifar_archive(tmp_path, monkeypatch)
    dest = tmp_path / "dest"
    out = fetch_cifar10(str(dest), base_url=mirror.as_uri())
    (dest / "cifar-10-binary.tar.gz").unlink()
    # all six batch files are there, so nothing is fetched
    assert fetch_cifar10(str(dest), base_url=(tmp_path / "nowhere").as_uri()) == out
    assert load_cifar10(out)[0].n == 35
    assert sorted(os.listdir(dest)) == ["cifar-10-batches-bin"]


@pytest.mark.parametrize("cut", [1, 2], ids=["download", "extraction"])
def test_fetch_cifar10_interrupted_leaves_no_file_under_its_final_name(tmp_path, monkeypatch, cut):
    mirror = make_cifar_archive(tmp_path, monkeypatch)
    dest = tmp_path / "dest"
    interrupt_copy(monkeypatch, cut)
    with pytest.raises(KeyboardInterrupt):
        fetch_cifar10(str(dest), base_url=mirror.as_uri())
    if cut == 1:
        assert sorted(os.listdir(dest)) == ["cifar-10-batches-bin", "cifar-10-binary.tar.gz.part"]
    else:
        # the archive adds its members in sorted order
        assert os.listdir(dest / "cifar-10-batches-bin") == ["data_batch_1.bin.part"]
    out = fetch_cifar10(str(dest), base_url=mirror.as_uri())
    assert load_cifar10(out)[0].n == 35
    assert not [name for name in os.listdir(out) if name.endswith(".part")]


# --- checks against the real datasets, when fetched ------------------------------

_REPO_DATA = os.environ.get(
    "LQA_DATA_DIR", os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")
)


def test_real_mnist_counts_and_layout():
    mnist_dir = os.path.join(_REPO_DATA, "mnist")
    try:
        (train,) = load_mnist(mnist_dir)
    except FileNotFoundError:
        pytest.skip(f"real MNIST not fetched under {mnist_dir}")
    assert train.n == 60_000
    assert train.inputs.shape[1:] == (28, 28)
    assert np.unique(train.labels).size == 10
    # first training label straight from the file bytes
    raw = open(os.path.join(mnist_dir, "train-labels-idx1-ubyte"), "rb").read(9)
    assert train.labels[0] == raw[8]


def test_real_cifar10_counts():
    try:
        (train,) = load_cifar10(_REPO_DATA)
    except FileNotFoundError:
        pytest.skip(f"real CIFAR-10 not fetched under {_REPO_DATA}")
    assert train.n == 50_000
    assert train.classes == 10
    assert train.inputs.shape[1:] == (3, 32, 32)
