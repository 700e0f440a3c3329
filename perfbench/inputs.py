"""Seeded, learnable MNIST-shaped inputs written as IDX files.

Each class has a fixed template of a few Gaussian blobs on the 28x28 grid.
An image is its class template times a per-image brightness in [0.8, 1.2]
plus Gaussian pixel noise (sigma 40), clipped to uint8. Uniform noise would
give a greedy rate nothing to learn; templates give every model a loss that
can fall. Labels cycle through the ten classes in a seeded shuffle, so every
class is equally common.

The files go through `lqa.data.write_idx_images` / `write_idx_labels`, the
program's own writers, and are cached per (split, seed) under the
benchmark's work directory. Generating them is never timed.
"""

import os
import shutil

import numpy as np

SIDE = 28
CLASSES = 10
_CHUNK = 8192


def _templates(rng):
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    out = np.zeros((CLASSES, SIDE, SIDE))
    for c in range(CLASSES):
        for _ in range(3):
            cy, cx = rng.uniform(6.0, 22.0, size=2)
            sigma = rng.uniform(2.0, 4.0)
            out[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))
        out[c] *= 180.0 / out[c].max()
    return out


def make_split(rng, templates, n):
    """(uint8 images (n, 28, 28), uint8 labels (n,)) drawn from `rng`."""
    labels = rng.permutation(np.arange(n) % CLASSES).astype(np.uint8)
    images = np.empty((n, SIDE, SIDE), dtype=np.uint8)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        scale = rng.uniform(0.8, 1.2, size=(hi - lo, 1, 1))
        pix = templates[labels[lo:hi]] * scale + rng.normal(0.0, 40.0, size=(hi - lo, SIDE, SIDE))
        images[lo:hi] = np.clip(np.rint(pix), 0, 255).astype(np.uint8)
    return images, labels


def generate(seed, n_train, n_test):
    """Train and t10k splits for one seed; the same seed gives the same bytes."""
    rng = np.random.default_rng([seed, n_train, n_test])
    templates = _templates(rng)
    return make_split(rng, templates, n_train), make_split(rng, templates, n_test)


def ensure(cache_dir, seed, n_train, n_test):
    """Write (or reuse) the IDX files for one seed; return (data_dir, train split).

    `data_dir` is what `TrainConfig.data_dir` expects: it holds `mnist/` with
    the four standard IDX files. Other seeds of the same split size are
    removed so the cache holds one input set per split size.
    """
    key = f"mnist-{n_train}-{n_test}"
    data_dir = os.path.join(cache_dir, f"{key}-seed{seed}")
    mnist = os.path.join(data_dir, "mnist")
    done = os.path.join(data_dir, "complete")
    train_images = os.path.join(mnist, "train-images-idx3-ubyte")
    train_labels = os.path.join(mnist, "train-labels-idx1-ubyte")
    if os.path.exists(done):
        # header sizes of the IDX image (16 bytes) and label (8 bytes) files
        images = np.fromfile(train_images, dtype=np.uint8, offset=16).reshape(n_train, SIDE, SIDE)
        labels = np.fromfile(train_labels, dtype=np.uint8, offset=8)
        return data_dir, (images, labels)
    if os.path.isdir(cache_dir):
        for name in os.listdir(cache_dir):
            if name.startswith(key + "-seed"):
                shutil.rmtree(os.path.join(cache_dir, name))
    from lqa.data import write_idx_images, write_idx_labels

    (train_x, train_y), (test_x, test_y) = generate(seed, n_train, n_test)
    os.makedirs(mnist)
    write_idx_images(train_images, train_x)
    write_idx_labels(train_labels, train_y)
    write_idx_images(os.path.join(mnist, "t10k-images-idx3-ubyte"), test_x)
    write_idx_labels(os.path.join(mnist, "t10k-labels-idx1-ubyte"), test_y)
    with open(done, "w") as f:
        f.write("ok\n")
    return data_dir, (train_x, train_y)
