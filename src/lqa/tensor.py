"""The package's non-finite error and a deterministic, platform-independent random source.

A "tensor" throughout this package is a ``numpy.ndarray`` of 64-bit floats.
Not every tensor is C-contiguous: Conv2d returns (n, c, h, w) views of
channel-major (c, n, h, w) memory, and Relu and MaxPool2 keep that layout.
64-bit precision is not negotiable: the optimizer estimates a curvature
coefficient from a central second difference of nearly equal loss values,
and that difference is unusably noisy in 32 bits. NaN and Inf surface as
NonFiniteError instead of propagating.
"""

import numpy as np

__all__ = [
    "NonFiniteError",
    "Rng",
    "derive_seed",
    "rng_uniform",
]


class NonFiniteError(ValueError):
    """A numeric operation produced (or was handed) NaN or Inf."""


# ---------------------------------------------------------------------------
# Random source
# ---------------------------------------------------------------------------

_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment of SplitMix64
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    """SplitMix64 finalizer on a uint64 array (Steele, Lea & Flood's mixer)."""
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX1
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX2
    return z ^ (z >> np.uint64(31))


def derive_seed(seed, stream):
    """Hash (seed, stream) into an independent 64-bit child seed."""
    z = np.uint64((seed + (stream + 1) * _GAMMA) & 0xFFFFFFFFFFFFFFFF)
    return int(_mix64(z.reshape(1))[0])


class Rng:
    """SplitMix64 run in counter mode.

    Output i of a stream seeded with s is ``mix64(s + (i+1)*GAMMA mod 2^64)``
    where GAMMA = 0x9E3779B97F4A7C15 and mix64 is the SplitMix64 finalizer
    (xor-shift 30, mul 0xBF58476D1CE4E5B9, xor-shift 27, mul
    0x94D049BB133111EB, xor-shift 31). All arithmetic is modulo 2^64, so the
    stream is identical on every platform for a given seed. The counter form
    lets blocks of outputs be generated vectorized.
    """

    def __init__(self, seed):
        self._seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._drawn = 0

    def next_uint64(self, count):
        """The next `count` raw 64-bit outputs."""
        if count < 0:
            raise ValueError("count must be non-negative")
        idx = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        base = np.uint64(self._seed)
        gamma = np.uint64(_GAMMA)
        return _mix64(base + idx * gamma)

    def uniform(self, count):
        """`count` doubles uniform on [0, 1): top 53 bits scaled by 2**-53."""
        bits = self.next_uint64(count)
        return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def permutation(self, n):
        """A uniform permutation of range(n): stable argsort of 64-bit keys."""
        keys = self.next_uint64(n)
        return np.argsort(keys, kind="stable")


def rng_uniform(rng, shape, lo=0.0, hi=1.0):
    """Tensor of i.i.d. uniform draws on [lo, hi); advances the rng state."""
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi})")
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    count = int(np.prod(shape)) if shape else 1
    u = rng.uniform(count)
    out = lo + u * (hi - lo)
    # lo + u*(hi-lo) can round up to hi for u just below 1; the contract is [lo, hi)
    out[out >= hi] = np.nextafter(hi, lo)
    return out.reshape(shape)
