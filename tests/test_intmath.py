"""Unit tests for repro.util.intmath."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.intmath import (
    ceil_div,
    ceil_log2,
    SPLITMIX_GAMMA,
    ilog2,
    is_power_of_two,
    mix64,
    next_power_of_two,
    paper_log,
    seed_key,
    shared_msb,
    splitmix64,
)


class TestPowerOfTwo:
    def test_accepts_powers(self):
        for k in range(20):
            assert is_power_of_two(1 << k)

    def test_rejects_non_powers(self):
        for x in (0, -1, -2, 3, 5, 6, 7, 9, 12, 100):
            assert not is_power_of_two(x)

    def test_ilog2_exact(self):
        for k in range(20):
            assert ilog2(1 << k) == k

    def test_ilog2_rejects(self):
        with pytest.raises(ValueError):
            ilog2(3)
        with pytest.raises(ValueError):
            ilog2(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_next_power_of_two(self, x):
        np2 = next_power_of_two(x)
        assert is_power_of_two(np2)
        assert np2 >= x
        assert np2 // 2 < x

    @given(st.integers(min_value=1, max_value=10**9))
    def test_ceil_log2(self, x):
        k = ceil_log2(x)
        assert (1 << k) >= x
        assert k == 0 or (1 << (k - 1)) < x


class TestCeilDiv:
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_matches_math(self, a, b):
        assert ceil_div(a, b) == math.ceil(a / b)

    def test_rejects_nonpositive_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(3, 0)


class TestPaperLog:
    def test_floors_at_one(self):
        assert paper_log(1) == 1.0
        assert paper_log(2) == 1.0
        assert paper_log(1.5) == 1.0

    def test_matches_log2_above_two(self):
        assert paper_log(8) == 3.0
        assert paper_log(1024) == 10.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            paper_log(0)


class TestSharedMsb:
    def test_identical_shares_all(self):
        assert shared_msb(16, 5, 5) == 4

    def test_adjacent_halves(self):
        # 0 = 0000, 8 = 1000: top bit differs.
        assert shared_msb(16, 0, 8) == 0

    def test_within_cluster(self):
        # 4 = 0100, 5 = 0101 share the top 3 bits.
        assert shared_msb(16, 4, 5) == 3

    def test_symmetry(self):
        for a in range(8):
            for b in range(8):
                assert shared_msb(8, a, b) == shared_msb(8, b, a)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            shared_msb(8, 0, 8)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 5))
    def test_cluster_characterisation(self, a, b, i):
        # shared_msb >= i iff a and b lie in the same i-cluster of M(64).
        same_cluster = (a >> (6 - i)) == (b >> (6 - i))
        assert (shared_msb(64, a, b) >= i) == same_cluster


class TestSplitmix64:
    def test_reference_stream(self):
        """The first outputs of splitmix64 seeded at 0 (Vigna's
        reference implementation)."""
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(SPLITMIX_GAMMA) == 0x6E789E6AA1B965F4

    def test_vectorised_finaliser_matches_the_scalar_form(self):
        rng = np.random.default_rng(4)
        z = rng.integers(0, 2**63, 1000, dtype=np.int64).astype(np.uint64) * 2
        z[:3] = (0, 1, 2**64 - 1)
        want = [splitmix64(x) for x in z.tolist()]
        assert mix64(z + np.uint64(SPLITMIX_GAMMA)).tolist() == want

    @given(st.integers(0, 2**64 - 1))
    def test_seeds_below_two_to_the_64_key_as_splitmix64(self, seed):
        assert seed_key(seed) == splitmix64(seed)

    def test_every_word_of_the_seed_feeds_the_key(self):
        keys = {seed_key(s) for s in (3, 2**64 + 3, 2**65 + 3, 2**128 + 3)}
        assert len(keys) == 4
        assert seed_key(2**64) == splitmix64(splitmix64(0) ^ 1)
