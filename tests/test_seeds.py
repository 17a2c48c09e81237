"""Derived seeds: the vectorized hash equals numpy's SeedSequence word for
word, which stays here as the reference only."""

import numpy as np
import pytest

from curv4.numerics import derive_seed, derive_seeds

SEEDS = [0, 1, 7919, 2**40 + 3, 2**63 + 5]
TAILS = [(0,), (1,), (2,)]
INDICES = list(range(3000)) + [2**32 - 1, 2**32, 2**32 + 7, 2**40 + 11]


def reference(seed, *path):
    words = np.random.SeedSequence(entropy=seed, spawn_key=path).generate_state(2, np.uint32)
    return int(words[0]) | (int(words[1]) << 32)


@pytest.mark.parametrize("tail", TAILS)
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_equals_seed_sequence(seed, tail):
    got = derive_seeds(seed, INDICES, *tail)
    assert got.dtype == np.uint64 and got.shape == (len(INDICES),)
    assert got.tolist() == [reference(seed, i, *tail) for i in INDICES]


@pytest.mark.parametrize("seed", SEEDS)
def test_single_equals_seed_sequence(seed):
    for i in INDICES[:50] + INDICES[-4:]:
        for tail in TAILS:
            assert derive_seed(seed, i, *tail) == reference(seed, i, *tail)
    # paths of one index, and of several words after the first
    assert derive_seed(seed, 5) == reference(seed, 5)
    assert derive_seed(seed, 3, 2**33, 4) == reference(seed, 3, 2**33, 4)


def test_mixed_widths_in_one_call_keep_their_order():
    indices = [2**40 + 11, 0, 2**32, 17, 2**32 - 1, 2**32 + 7, 3]
    got = derive_seeds(7919, indices, 1)
    assert got.tolist() == [reference(7919, i, 1) for i in indices]
    assert got.tolist() == [derive_seed(7919, i, 1) for i in indices]


@pytest.mark.parametrize("tail", [(2**32,), (2**40 + 3, 5), (2**64 - 1,)])
@pytest.mark.parametrize("seed", [2**64 - 1, 0, 2**40 + 3])
def test_batches_over_mixed_widths_and_two_word_tails(seed, tail):
    # Odd i moves to the high word, so one- and two-word indices alternate;
    # then both edges of the widths.
    indices = [i << 32 * (i % 2) for i in range(120)] + [2**64 - 1, 2**32 - 1, 2**32]
    got = derive_seeds(seed, indices, *tail)
    assert got.tolist() == [reference(seed, i, *tail) for i in indices]
    assert got.tolist()[::10] == [derive_seed(seed, i, *tail) for i in indices[::10]]


def test_seed_is_reduced_to_64_bits():
    assert derive_seeds(2**64 + 9, [4], 0).tolist() == [reference(9, 4, 0)]
    assert derive_seed(-1, 4, 0) == reference(2**64 - 1, 4, 0)


def test_empty_and_array_indices():
    empty = derive_seeds(3, [], 0)
    assert empty.dtype == np.uint64 and empty.shape == (0,)
    assert derive_seeds(3, np.arange(5), 0).tolist() == derive_seeds(3, range(5), 0).tolist()


@pytest.mark.parametrize("bad", [[-1], [2**64], [1.5]])
def test_bad_indices_are_rejected(bad):
    with pytest.raises((OverflowError, TypeError)):
        derive_seeds(1, bad, 0)


@pytest.mark.parametrize("indices", [
    range(0), range(7), range(3, 40, 6), range(40, 3, -6), range(2**32 - 3, 2**32 + 3),
    range(2**64 - 5, 2**64), range(2**64 - 1, 2**64 - 9, -2)])
def test_range_equals_its_list(indices):
    got = derive_seeds(7919, indices, 1)
    assert got.dtype == np.uint64
    assert got.tolist() == derive_seeds(7919, list(indices), 1).tolist()


@pytest.mark.parametrize("bad", [range(-1, 3), range(3, -2, -1), range(2**64 - 2, 2**64 + 1)])
def test_bad_ranges_are_rejected(bad):
    with pytest.raises(OverflowError):
        derive_seeds(1, bad, 0)

