"""Dataset loading, deterministic epoch batching, and archive fetching.

MNIST ships as big-endian IDX files (magic 2051 for images, 2049 for labels),
CIFAR-10 as flat binary batches of 3073-byte records (label byte, then 3072
channel-planar pixel bytes). Both loaders read the train split only, the one
training runs use, and keep its pixels as read-only uint8. Scaling to [0, 1]
by /255 (and nothing else) happens per epoch: `epoch_batches` writes the
permuted, scaled rows into one float64 buffer that the run allocates once, so
a run holds one float64 copy of the split, not two.
`fetch_mnist` and `fetch_cifar10` download every archive, test split
included, from `base_url`: the URL of the directory (a `file://` mirror too)
that holds them under their published names. Each is checked against its
pinned md5 (`MNIST_ARCHIVES`, `CIFAR10_MD5`); one already there is verified.
"""

import gzip
import hashlib
import math
import os
import shutil
import struct
import tarfile
import urllib.request
import zlib
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
CIFAR10_BASE_URL = "https://www.cs.toronto.edu/~kriz/"
CIFAR10_MD5 = "c32a1d4ab5d03f1284b67883e8d87530"
CIFAR10_DIRNAME = "cifar-10-batches-bin"
_CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
_CIFAR_RECORD = 3073


@dataclass
class Dataset:
    """Inputs with integer class labels; immutable after load.

    The loaders keep the pixels as uint8 and hand both arrays out read-only.
    """

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


def _read_idx(path, magic):
    """The uint8 array in an IDX file (plain or .gz), checked against the expected magic.

    The magic's low byte is the array's rank; a header of that many big-endian
    int32 extents follows it, then the payload.
    """
    rank = magic & 0xFF
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as f:
            header = f.read(4 * (1 + rank))
            if len(header) != 4 * (1 + rank):
                raise ValueError(f"truncated IDX header in {path}")
            got, *shape = struct.unpack(f">{1 + rank}i", header)
            if got != magic:
                raise ValueError(f"bad IDX magic {got} in {path}, expected {magic}")
            extents = "x".join(map(str, shape))
            if shape[0] < 0 or min(shape[1:], default=1) < 1:
                raise ValueError(f"implausible IDX extents {extents} in {path}")
            size = math.prod(shape)
            # an absurd header asks for more bytes than an index can hold or memory can
            try:
                payload = f.read(size + 1)
            except (OverflowError, MemoryError):
                raise ValueError(f"IDX extents {extents} too large in {path}") from None
            if len(payload) != size:
                raise ValueError(f"payload size mismatch in {path}")
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        # a cut or damaged .gz stream, which gzip reports without the file's name
        raise ValueError(f"corrupt gzip stream in {path}: {exc}") from None
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def _write_idx(path, magic, array):
    """Serialize `array` as uint8 IDX bytes under `magic`, bit-exact."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    if array.ndim != magic & 0xFF:
        raise ValueError(f"IDX magic {magic} holds rank {magic & 0xFF}, got shape {array.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + array.ndim}i", magic, *array.shape))
        f.write(array.tobytes())


def read_idx_images(path):
    """Raw uint8 image stack (count, rows, cols) from an IDX image file."""
    return _read_idx(path, IDX_IMAGE_MAGIC)


def read_idx_labels(path):
    """Raw uint8 label vector from an IDX label file."""
    return _read_idx(path, IDX_LABEL_MAGIC)


def write_idx_images(path, images):
    """Serialize a uint8 (count, rows, cols) stack back to IDX bytes, bit-exact."""
    _write_idx(path, IDX_IMAGE_MAGIC, images)


def write_idx_labels(path, labels):
    """Serialize a uint8 label vector back to IDX bytes, bit-exact."""
    _write_idx(path, IDX_LABEL_MAGIC, labels)


def _find_idx(directory, stem):
    for name in (stem, stem + ".gz"):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(f"{stem}[.gz] not found under {directory}")


def _dataset(images, labels):
    """A 10-class Dataset of the uint8 images as loaded, inputs and labels read-only.

    Nothing is scaled here; epoch_batches divides by 255 per epoch, into the
    run's float64 buffer.
    """
    dataset = Dataset(images, labels.astype(np.int64), 10)
    dataset.inputs.flags.writeable = False
    dataset.labels.flags.writeable = False
    return dataset


def load_mnist(directory):
    """(train,) from the two train IDX files (plain or .gz); t10k is not read.

    A 1-tuple because perfbench's tracer wraps this and indexes its [0].
    """
    path = _find_idx(directory, "train-images-idx3-ubyte")
    images = read_idx_images(path)
    if images.shape[1:] != (28, 28):
        raise ValueError(f"{path} holds {images.shape[1]}x{images.shape[2]} images, not 28x28")
    labels = read_idx_labels(_find_idx(directory, "train-labels-idx1-ubyte"))
    if len(images) != len(labels):
        raise ValueError(
            f"{len(images)} images but {len(labels)} labels under {directory}"
        )
    return (_dataset(images, labels),)


# ---------------------------------------------------------------------------
# CIFAR-10 binary format
# ---------------------------------------------------------------------------


def load_cifar10(directory):
    """(train,) from the five data_batch files; test_batch.bin is not read.

    Accepts either the directory that directly contains the .bin files or its
    parent (the archive extracts to cifar-10-batches-bin/). A 1-tuple, as
    load_mnist returns, so bench._setup indexes both loaders alike.
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
    return (_dataset(np.concatenate(images), np.concatenate(labels)),)


# ---------------------------------------------------------------------------
# Batching and synthetic objectives
# ---------------------------------------------------------------------------


def epoch_batches(dataset, n, rng, out):
    """One epoch's batches: a fresh seeded permutation chunked into K = N//n
    full batches; the remainder is dropped so every batch has exactly n samples.

    Batch i's inputs are out[i*n:(i+1)*n], written as its permuted uint8 rows
    divided by 255.0 (the same bits as astype(float64) / 255.0). `out` is the
    caller's float64 buffer of K*n rows shaped like the inputs' rows; every
    epoch of a run reuses it, so a batch's inputs are valid only until the
    next call.
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
        inputs = np.divide(dataset.inputs[idx], 255.0, out=out[i * n : (i + 1) * n])
        batches.append(Batch(idx, inputs, dataset.labels[idx]))
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


def _save(src, path):
    """Copy the file object `src` to `path` by way of `path + ".part"`, so
    an interrupted copy never leaves a file under the final name."""
    part = path + ".part"
    with open(part, "wb") as dst:
        shutil.copyfileobj(src, dst, 1 << 20)
    os.replace(part, path)


def _fetch_verified(base_url, path, md5):
    """Download `path`'s file name from base_url unless it is there, then check its md5."""
    if not os.path.exists(path):
        url = base_url.rstrip("/") + "/" + os.path.basename(path)
        with urllib.request.urlopen(url) as resp:
            _save(resp, path)
    got = _md5(path)
    if got != md5:
        raise ValueError(f"checksum mismatch for {os.path.basename(path)}: {got} != {md5}")


def fetch_mnist(directory, base_url=MNIST_BASE_URL):
    """Download (if needed), verify, and decompress the four MNIST archives.

    Returns the directory holding the decompressed IDX files. An IDX file
    already there is kept, and its archive is not read.
    """
    os.makedirs(directory, exist_ok=True)
    for name, md5 in MNIST_ARCHIVES.items():
        archive = os.path.join(directory, name)
        raw = archive[: -len(".gz")]
        if os.path.exists(raw):
            continue
        _fetch_verified(base_url, archive, md5)
        with gzip.open(archive, "rb") as src:
            _save(src, raw)
    return directory


def fetch_cifar10(directory, base_url=CIFAR10_BASE_URL):
    """Download (if needed), verify, and extract cifar-10-binary.tar.gz.

    Returns its batch directory, left as it is once it holds all six files.
    """
    target = os.path.join(directory, CIFAR10_DIRNAME)
    os.makedirs(target, exist_ok=True)
    wanted = _CIFAR_TRAIN_FILES + ["test_batch.bin"]
    if all(os.path.exists(os.path.join(target, f)) for f in wanted):
        return target
    archive = os.path.join(directory, "cifar-10-binary.tar.gz")
    _fetch_verified(base_url, archive, CIFAR10_MD5)
    with tarfile.open(archive, "r:gz") as tar:
        for member in tar.getmembers():
            base = os.path.basename(member.name)
            if member.isfile() and base in wanted:
                with tar.extractfile(member) as src:
                    _save(src, os.path.join(target, base))
    return target
