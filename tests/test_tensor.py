import numpy as np
import pytest

from lqa.tensor import Rng, derive_seed, rng_uniform


_M64 = (1 << 64) - 1


def splitmix64_reference(seed, count):
    """SplitMix64 stream in pure Python integers, independent of numpy."""
    out = []
    for i in range(1, count + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & _M64
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _M64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _M64
        z ^= z >> 31
        out.append(z)
    return out


def test_rng_same_seed_same_stream():
    a = rng_uniform(Rng(42), (3, 4), 0.0, 1.0)
    b = rng_uniform(Rng(42), (3, 4), 0.0, 1.0)
    assert np.array_equal(a, b)


def test_rng_distinct_seeds_differ():
    a = rng_uniform(Rng(1), (100,))
    b = rng_uniform(Rng(2), (100,))
    assert not np.array_equal(a, b)


def test_rng_matches_pure_python_reference():
    got = Rng(123456789).next_uint64(8)
    ref = splitmix64_reference(123456789, 8)
    assert [int(v) for v in got] == ref


def test_rng_stream_continues_across_calls():
    rng = Rng(5)
    first = rng.next_uint64(3)
    second = rng.next_uint64(3)
    ref = splitmix64_reference(5, 6)
    assert [int(v) for v in first] + [int(v) for v in second] == ref


def test_rng_uniform_respects_half_open_bounds():
    lo = 0.25
    hi = lo + 1e-9
    draws = rng_uniform(Rng(3), (10000,), lo, hi)
    assert draws.min() >= lo
    assert draws.max() < hi


def test_rng_uniform_law_of_large_numbers():
    draws = rng_uniform(Rng(42), (100000,), 0.0, 1.0)
    assert abs(draws.mean() - 0.5) < 0.01


def test_rng_uniform_rejects_bad_bounds():
    with pytest.raises(ValueError):
        rng_uniform(Rng(0), (4,), 1.0, 1.0)


def test_next_uint64_rejects_a_negative_count():
    rng = Rng(0)
    with pytest.raises(ValueError, match="non-negative"):
        rng.next_uint64(-1)
    # the refused call drew nothing
    assert np.array_equal(rng.next_uint64(2), Rng(0).next_uint64(2))


def test_permutation_is_a_permutation():
    perm = Rng(9).permutation(1000)
    assert np.array_equal(np.sort(perm), np.arange(1000))


def test_permutation_deterministic_and_seed_dependent():
    assert np.array_equal(Rng(9).permutation(50), Rng(9).permutation(50))
    assert not np.array_equal(Rng(9).permutation(50), Rng(10).permutation(50))


def test_derive_seed_separates_streams():
    seeds = {derive_seed(42, k) for k in range(16)}
    assert len(seeds) == 16
    assert derive_seed(42, 0) == derive_seed(42, 0)
