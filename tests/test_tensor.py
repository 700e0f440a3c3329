import tracemalloc

import numpy as np
import pytest

from lqa import nn
from lqa.tensor import BLOCK, Rng, derive_seed, rng_uniform


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


def test_permutation_equals_the_stable_argsort_of_its_keys():
    # a call's keys are distinct, so the default sort and a stable one agree
    for n in (1, 1024, 60000):
        keys = Rng(n).next_uint64(n)
        assert np.array_equal(Rng(n).permutation(n), np.argsort(keys, kind="stable")), n


# --- draws made one block at a time ---------------------------------------------


def test_next_uint64_across_blocks_matches_reference():
    # two full blocks and a ragged third; the whole stream is compared, so
    # the first, last and block-edge outputs are too
    count = 2 * BLOCK + 7
    got = Rng(77).next_uint64(count)
    assert [int(v) for v in got] == splitmix64_reference(77, count)


def test_a_stream_split_across_calls_equals_one_call():
    rng = Rng(11)
    parts = [rng.next_uint64(3), rng.next_uint64(2 * BLOCK), rng.next_uint64(5)]
    assert np.array_equal(np.concatenate(parts), Rng(11).next_uint64(2 * BLOCK + 8))
    rng = Rng(11)
    parts = [rng.uniform(3), rng_uniform(rng, (2 * BLOCK,), -2.0, 3.0), rng.uniform(5)]
    whole = Rng(11).uniform(2 * BLOCK + 8)
    whole[3:-5] = -2.0 + whole[3:-5] * 5.0
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0), (1e7, 1e7 + 1e-9)])
def test_rng_uniform_equals_the_whole_array_form_bitwise(lo, hi):
    # the whole-array form: lo + u*(hi - lo) over every draw at once, then the
    # values that rounded up to hi set to the largest double below it
    count = 2 * BLOCK + 7
    bits = np.array(splitmix64_reference(5, count), dtype=np.uint64)
    u = (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    ref = lo + u * (hi - lo)
    clamped = ref >= hi
    ref[clamped] = np.nextafter(hi, lo)
    if lo == 1e7:
        # hi is the next double above lo, so about half of the draws clamp
        assert hi == np.nextafter(lo, np.inf) and clamped.mean() > 0.4
    got = rng_uniform(Rng(5), (count,), lo, hi)
    assert got.tobytes() == ref.tobytes()
    assert got.max() < hi


def test_init_params_holds_little_beyond_the_vector_it_returns():
    # each weight's draws go straight into its span of the vector; the work
    # vectors of the draw are three blocks, about 6% of the MLP's 14.4 MB
    model = nn.build_mlp()
    tracemalloc.start()
    try:
        params = nn.init_params(model, Rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * params.nbytes
