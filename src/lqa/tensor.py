"""The package's non-finite error and a deterministic, platform-independent random source.

A "tensor" throughout this package is a ``numpy.ndarray`` of 64-bit floats.
Not every tensor is C-contiguous: Conv2d returns (n, c, h, w) views of
channel-major (c, n, h, w) memory, and Relu and MaxPool2 keep that layout.
64-bit precision is not negotiable: the optimizer estimates a curvature
coefficient from a central second difference of nearly equal loss values,
and that difference is unusably noisy in 32 bits. NaN and Inf surface as
NonFiniteError instead of propagating.

Random draws are made one `BLOCK` of values at a time, in place into the
output (`nn.init_params` draws each weight straight into its span of the
parameter vector), and give the same SplitMix64 stream bit for bit however a
draw is split into calls or blocks.
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

# values per block of a draw or of an optimizer update (256 KB of uint64 or
# float64), small enough to stay in L2 for all of the block's passes
BLOCK = 1 << 15

_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment of SplitMix64
_M64 = (1 << 64) - 1
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z, tmp):
    """SplitMix64 finalizer (Steele, Lea & Flood's mixer), in place on the uint64 vector z.

    tmp is scratch of z's size.
    """
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def derive_seed(seed, stream):
    """Hash (seed, stream) into an independent 64-bit child seed."""
    z = np.array([(seed + (stream + 1) * _GAMMA) & _M64], dtype=np.uint64)
    _mix64(z, np.empty_like(z))
    return int(z[0])


class Rng:
    """SplitMix64 run in counter mode.

    Output i of a stream seeded with s is ``mix64(s + (i+1)*GAMMA mod 2^64)``
    where GAMMA = 0x9E3779B97F4A7C15 and mix64 is the SplitMix64 finalizer
    (xor-shift 30, mul 0xBF58476D1CE4E5B9, xor-shift 27, mul
    0x94D049BB133111EB, xor-shift 31). All arithmetic is modulo 2^64, so the
    stream is identical on every platform for a given seed. The counter form
    lets outputs be made vectorized: every draw is made one `BLOCK` of values
    at a time, in place in a work vector and then in its output, so a draw
    makes no temporary longer than a block and yields the same stream however
    it is split into calls or blocks.
    """

    def __init__(self, seed):
        self._seed = int(seed) & _M64
        self._drawn = 0

    def _blocks(self, count):
        """Yield (offset, block) over the next `count` raw outputs, in blocks of at most BLOCK.

        Each block is drawn in place into one work vector, so it is valid
        until the next one is drawn.
        """
        steps = np.arange(min(count, BLOCK), dtype=np.uint64)
        steps *= np.uint64(_GAMMA)  # j*GAMMA: a block's counter terms past its first
        z, tmp = np.empty_like(steps), np.empty_like(steps)
        for lo in range(0, count, BLOCK):
            n = min(BLOCK, count - lo)
            first = (self._seed + (self._drawn + 1) * _GAMMA) & _M64
            np.add(steps[:n], np.uint64(first), out=z[:n])
            _mix64(z[:n], tmp[:n])
            self._drawn += n
            yield lo, z[:n]

    def next_uint64(self, count):
        """The next `count` raw 64-bit outputs."""
        if count < 0:
            raise ValueError("count must be non-negative")
        out = np.empty(count, dtype=np.uint64)
        for lo, z in self._blocks(count):
            out[lo : lo + z.size] = z
        return out

    def uniform(self, count):
        """`count` doubles uniform on [0, 1): top 53 bits scaled by 2**-53."""
        return _fill_uniform(self, np.empty(count, dtype=np.float64))

    def permutation(self, n):
        """A uniform permutation of range(n): the argsort of n 64-bit keys.

        A call's keys are all distinct (mix64 is a bijection, and the counters
        differ mod 2^64 because GAMMA is odd), so every sort, stable or not,
        returns the same permutation.
        """
        return np.argsort(self.next_uint64(n))


def _fill_uniform(rng, out, lo=0.0, hi=1.0):
    """Write out.size draws on [lo, hi) into the flat float64 vector out, in place; return out.

    Each block of draws is shifted, scaled and clamped as it is made:
    ``u *= hi - lo; u += lo`` rounds exactly as ``lo + u*(hi - lo)``, the
    clamp keeps the half-open box where that rounds up to hi, and with the
    default box every step leaves u's bits as they are.
    """
    top = np.nextafter(hi, lo)
    for start, z in rng._blocks(out.size):
        u = out[start : start + z.size]
        z >>= np.uint64(11)
        np.multiply(z, 2.0**-53, out=u)
        u *= hi - lo
        u += lo
        np.minimum(u, top, out=u)
    return out


def rng_uniform(rng, shape, lo=0.0, hi=1.0):
    """Tensor of i.i.d. uniform draws on [lo, hi); advances the rng state."""
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi})")
    out = np.empty(shape, dtype=np.float64)
    _fill_uniform(rng, out.reshape(-1), lo, hi)
    return out
