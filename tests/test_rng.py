"""Seed derivation and generator construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket.rng import SEED_BYTES, rng_from


def int_seeded(seed: bytes) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int.from_bytes(seed, "big")))


def assert_same_stream(seed: bytes) -> None:
    a, b = rng_from(seed), int_seeded(seed)
    assert np.array_equal(a.integers(0, 2**63, size=8), b.integers(0, 2**63, size=8))
    assert np.array_equal(a.permutation(50), b.permutation(50))
    assert np.array_equal(a.normal(size=5), b.normal(size=5))


class TestRngFrom:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=SEED_BYTES, max_size=SEED_BYTES))
    def test_stream_equals_integer_seeding(self, seed):
        assert_same_stream(seed)

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from([4, 8, 28, 32]),
        st.binary(min_size=SEED_BYTES, max_size=SEED_BYTES),
    )
    def test_leading_zero_words_dropped_like_the_integer(self, zeros, tail):
        # the integer form loses leading zero bytes; its words must match ours
        assert_same_stream(bytes(zeros) + tail[zeros:])

    @pytest.mark.parametrize("seed", [bytes(32), bytes(31) + b"\x01", b"\x01" + bytes(31)])
    def test_edge_seeds(self, seed):
        assert_same_stream(seed)

    @pytest.mark.parametrize("size", [0, 31, 33])
    def test_wrong_length_rejected(self, size):
        with pytest.raises(ValueError):
            rng_from(bytes(size))
