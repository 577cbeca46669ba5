"""Deterministic random stream checks against frozen reference values."""

import pytest

from mastkit.rng import SplitMix64, mix64


def test_splitmix64_matches_the_published_vector():
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_splitmix64_nonzero_seed_frozen():
    assert SplitMix64(1234567).next_u64() == 0x599ED017FB08FC85


def test_streams_with_equal_seeds_are_identical():
    a, b = SplitMix64(99), SplitMix64(99)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]


def test_randrange_stays_in_bounds_and_is_frozen():
    gen = SplitMix64(42)
    draws = [gen.randrange(6) for _ in range(8)]
    assert draws == [1, 1, 0, 0, 4, 0, 1, 2]
    assert all(0 <= d < 6 for d in draws)


def test_randrange_takes_bounds_up_to_two_to_the_64():
    # Past 2**64 no 64-bit draw can be uniform, and every draw was
    # rejected, so the call never returned.
    gen = SplitMix64(1)
    for bad in (0, -1, (1 << 64) + 1, 1 << 65):
        with pytest.raises(ValueError):
            gen.randrange(bad)
    assert SplitMix64(0).randrange(1 << 64) == 0xE220A8397B1DCDAF


def test_shuffle_is_frozen_and_a_permutation():
    gen = SplitMix64(42)
    xs = list(range(10))
    gen.shuffle(xs)
    assert xs == [0, 9, 5, 8, 6, 4, 7, 2, 1, 3]
    assert sorted(xs) == list(range(10))


def test_mix64_depends_on_every_part_and_on_order():
    assert mix64(0) == 15574732934893814642
    assert mix64(0, 1) == 3252126715644146669
    assert mix64(1, 0) == 16421975325296339332
    assert mix64(5, 8, 0, 2) == 2614445908147339717
    assert mix64(0, 1) != mix64(1, 0)
    assert mix64(3, 4) != mix64(3, 5)
