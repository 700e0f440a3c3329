"""Dataset loading, deterministic epoch batching, and archive fetching.

MNIST ships as big-endian IDX files (magic 2051 for images, 2049 for labels),
CIFAR-10 as flat binary batches of 3073-byte records (label byte, then 3072
channel-planar pixel bytes). Both loaders read the train split only, the one
training runs use, and scale pixels to [0, 1] by /255 and nothing else.
`fetch_mnist`/`fetch_cifar10` download and checksum-verify every archive,
test split included, for machines that have network access; pre-downloaded
files work the same way.
"""

import gzip
import hashlib
import os
import struct
import tarfile
import urllib.request
from dataclasses import dataclass

import numpy as np

from .oracle import QuadraticObjective
from .tensor import Rng, rng_uniform

__all__ = [
    "Dataset",
    "Batch",
    "load_mnist",
    "load_cifar10",
    "epoch_batches",
    "synthetic_quadratic",
    "fetch_mnist",
    "fetch_cifar10",
    "default_data_dir",
    "read_idx_images",
    "read_idx_labels",
    "write_idx_images",
    "write_idx_labels",
]

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

MNIST_BASE_URL = "https://ossci-datasets.s3.amazonaws.com/mnist/"
MNIST_ARCHIVES = {
    "train-images-idx3-ubyte.gz": "f68b3c2dcbeaaa9fbdd348bbdeb94873",
    "train-labels-idx1-ubyte.gz": "d53e105ee54ea40749a09fcbcd1e9432",
    "t10k-images-idx3-ubyte.gz": "9fb629c4189551a2d022fa330f9573f3",
    "t10k-labels-idx1-ubyte.gz": "ec29112dd5afa0611ce80d1b7f02629c",
}
CIFAR10_URL = "https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz"
CIFAR10_MD5 = "c32a1d4ab5d03f1284b67883e8d87530"
CIFAR10_DIRNAME = "cifar-10-batches-bin"
_CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
_CIFAR_RECORD = 3073


@dataclass
class Dataset:
    """Inputs with integer class labels; immutable after load."""

    inputs: np.ndarray
    labels: np.ndarray
    classes: int

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError(
                f"{len(self.inputs)} inputs but {len(self.labels)} labels"
            )
        if len(self.labels) and not (
            self.labels.min() >= 0 and self.labels.max() < self.classes
        ):
            raise ValueError(f"labels outside [0, {self.classes})")

    @property
    def n(self):
        return len(self.labels)


@dataclass
class Batch:
    """One minibatch: the sample ids plus their resolved inputs and labels."""

    indices: np.ndarray
    inputs: np.ndarray
    labels: np.ndarray


# ---------------------------------------------------------------------------
# IDX (MNIST) format
# ---------------------------------------------------------------------------


def _open_maybe_gzip(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_be32(f, what):
    raw = f.read(4)
    if len(raw) != 4:
        raise ValueError(f"truncated IDX file while reading {what}")
    return struct.unpack(">i", raw)[0]


def read_idx_images(path):
    """Raw uint8 image stack (count, rows, cols) from an IDX image file."""
    with _open_maybe_gzip(path) as f:
        magic = _read_be32(f, "magic")
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"bad image magic {magic} in {path}")
        count = _read_be32(f, "count")
        rows = _read_be32(f, "rows")
        cols = _read_be32(f, "cols")
        if count < 0 or rows < 1 or cols < 1:
            raise ValueError(f"implausible IDX extents {count}x{rows}x{cols} in {path}")
        payload = f.read(count * rows * cols + 1)
        if len(payload) != count * rows * cols:
            raise ValueError(f"payload size mismatch in {path}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)


def read_idx_labels(path):
    """Raw uint8 label vector from an IDX label file."""
    with _open_maybe_gzip(path) as f:
        magic = _read_be32(f, "magic")
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"bad label magic {magic} in {path}")
        count = _read_be32(f, "count")
        if count < 0:
            raise ValueError(f"implausible IDX count {count} in {path}")
        payload = f.read(count + 1)
        if len(payload) != count:
            raise ValueError(f"payload size mismatch in {path}")
    return np.frombuffer(payload, dtype=np.uint8)


def write_idx_images(path, images):
    """Serialize a uint8 (count, rows, cols) stack back to IDX bytes, bit-exact."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, count, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())


def _find_idx(directory, stem):
    for name in (stem, stem + ".gz"):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(f"{stem}[.gz] not found under {directory}")


def _scaled(images, labels):
    """A 10-class Dataset of uint8 images scaled to [0, 1] by /255."""
    return Dataset(images.astype(np.float64) / 255.0, labels.astype(np.int64), 10)


def load_mnist(directory):
    """(train,) from the two train IDX files (plain or .gz); t10k is not read.

    A 1-tuple because perfbench's tracer wraps this and indexes its [0].
    """
    images = read_idx_images(_find_idx(directory, "train-images-idx3-ubyte"))
    labels = read_idx_labels(_find_idx(directory, "train-labels-idx1-ubyte"))
    if len(images) != len(labels):
        raise ValueError(
            f"{len(images)} images but {len(labels)} labels under {directory}"
        )
    return (_scaled(images, labels),)


# ---------------------------------------------------------------------------
# CIFAR-10 binary format
# ---------------------------------------------------------------------------


def load_cifar10(directory):
    """(train,) from the five data_batch files; test_batch.bin is not read.

    Accepts either the directory that directly contains the .bin files or its
    parent (the archive extracts to cifar-10-batches-bin/). A 1-tuple for the
    same reason as load_mnist.
    """
    inner = os.path.join(directory, CIFAR10_DIRNAME)
    if os.path.isdir(inner):
        directory = inner
    images, labels = [], []
    for name in _CIFAR_TRAIN_FILES:
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            raise FileNotFoundError(f"{name} not found under {directory}")
        raw = np.fromfile(path, dtype=np.uint8)
        if raw.size == 0 or raw.size % _CIFAR_RECORD:
            raise ValueError(f"{path} is not a whole number of {_CIFAR_RECORD}-byte records")
        recs = raw.reshape(-1, _CIFAR_RECORD)
        labels.append(recs[:, 0])
        images.append(recs[:, 1:].reshape(-1, 3, 32, 32))
    return (_scaled(np.concatenate(images), np.concatenate(labels)),)


# ---------------------------------------------------------------------------
# Batching and synthetic objectives
# ---------------------------------------------------------------------------


def epoch_batches(dataset, n, rng):
    """One epoch's batches: a fresh seeded permutation chunked into K = N//n
    full batches; the remainder is dropped so every batch has exactly n samples.
    """
    if n < 1:
        raise ValueError("batch size must be at least 1")
    if n > dataset.n:
        raise ValueError(f"batch size {n} exceeds dataset size {dataset.n}")
    perm = rng.permutation(dataset.n)
    k = dataset.n // n
    batches = []
    for i in range(k):
        idx = perm[i * n : (i + 1) * n]
        batches.append(Batch(idx, dataset.inputs[idx], dataset.labels[idx]))
    return batches


def synthetic_quadratic(dim, seed):
    """A random positive-definite quadratic objective.

    The Hessian is Q diag(eig) Q^T for a QR-orthogonalized random matrix and
    eigenvalues drawn uniform on [0.1, 10]; the linear offset is uniform on
    [-1, 1].
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = Rng(seed)
    m = rng_uniform(rng, (dim, dim), -1.0, 1.0)
    q, r = np.linalg.qr(m)
    signs = np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    q = q * signs
    eig = rng_uniform(rng, (dim,), 0.1, 10.0)
    a = (q * eig) @ q.T
    a = 0.5 * (a + a.T)
    c = rng_uniform(rng, (dim,), -1.0, 1.0)
    return QuadraticObjective(a, c)


# ---------------------------------------------------------------------------
# Fetching
# ---------------------------------------------------------------------------


def default_data_dir():
    """$LQA_DATA_DIR if set, else ./data."""
    return os.environ.get("LQA_DATA_DIR", os.path.join(os.getcwd(), "data"))


def _md5(path):
    digest = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _download(url, dest):
    with urllib.request.urlopen(url) as resp, open(dest, "wb") as out:
        while True:
            chunk = resp.read(1 << 20)
            if not chunk:
                break
            out.write(chunk)


def fetch_mnist(directory, base_url=MNIST_BASE_URL, checksums=None):
    """Download (if needed), verify, and decompress the four MNIST archives.

    Returns the directory holding the decompressed IDX files. Archives
    already present are verified rather than re-downloaded.
    """
    checksums = MNIST_ARCHIVES if checksums is None else checksums
    os.makedirs(directory, exist_ok=True)
    for name, md5 in checksums.items():
        archive = os.path.join(directory, name)
        raw = archive[: -len(".gz")]
        if os.path.exists(raw):
            continue
        if not os.path.exists(archive):
            _download(base_url.rstrip("/") + "/" + name, archive)
        got = _md5(archive)
        if got != md5:
            raise ValueError(f"checksum mismatch for {name}: {got} != {md5}")
        with gzip.open(archive, "rb") as src, open(raw, "wb") as dst:
            dst.write(src.read())
    return directory


def fetch_cifar10(directory, url=CIFAR10_URL, md5=CIFAR10_MD5):
    """Download (if needed), verify, and extract the CIFAR-10 binary archive."""
    os.makedirs(directory, exist_ok=True)
    target = os.path.join(directory, CIFAR10_DIRNAME)
    wanted = _CIFAR_TRAIN_FILES + ["test_batch.bin"]
    if all(os.path.exists(os.path.join(target, f)) for f in wanted):
        return target
    archive = os.path.join(directory, os.path.basename(url))
    if not os.path.exists(archive):
        _download(url, archive)
    got = _md5(archive)
    if got != md5:
        raise ValueError(f"checksum mismatch for {os.path.basename(url)}: {got} != {md5}")
    with tarfile.open(archive, "r:gz") as tar:
        for member in tar.getmembers():
            base = os.path.basename(member.name)
            if member.isfile() and base in wanted:
                member.name = os.path.join(CIFAR10_DIRNAME, base)
                tar.extract(member, directory)
    return target
