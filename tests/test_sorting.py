"""Tests for network-oblivious Columnsort (Section 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import sorting
from repro.algorithms.sorting import columnsort_shape
from repro.core import TraceMetrics, measured_alpha
from repro.core.lower_bounds import sort_lower_bound
from repro.core.theory import h_sort_closed
from repro.machine.folding import fold_degrees


class TestShape:
    @pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024, 4096])
    def test_leighton_condition(self, n):
        """r >= 2(s-1)^2 — the Columnsort correctness requirement."""
        r, s = columnsort_shape(n)
        assert r * s == n
        assert r >= 2 * (s - 1) ** 2

    @pytest.mark.parametrize("n", [64, 512, 4096])
    def test_r_theta_n_two_thirds(self, n):
        r, _ = columnsort_shape(n)
        assert n ** (2 / 3) / 2 <= r <= 4 * n ** (2 / 3)


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512])
    def test_sorts_random_permutations(self, rng, n):
        x = rng.permutation(n).astype(float)
        res = sorting.run(x)
        assert np.array_equal(res.output, np.sort(x))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sorts_any_seed_n256(self, seed):
        x = np.random.default_rng(seed).permutation(256).astype(float)
        assert np.array_equal(sorting.run(x).output, np.arange(256.0))

    def test_reverse_sorted_input(self):
        x = np.arange(128.0)[::-1].copy()
        assert np.array_equal(sorting.run(x).output, np.arange(128.0))

    def test_already_sorted_input(self):
        x = np.arange(128.0)
        assert np.array_equal(sorting.run(x).output, x)

    def test_negative_and_float_keys(self, rng):
        x = rng.standard_normal(64) * 100
        assert np.allclose(sorting.run(x).output, np.sort(x))

    def test_trace_legal(self, rng):
        sorting.run(rng.permutation(128).astype(float)).trace.validate()


class TestStructure:
    def test_static_structure(self, rng):
        t1 = sorting.run(rng.permutation(64).astype(float)).trace
        t2 = sorting.run(np.arange(64.0)).trace
        assert np.array_equal(t1.labels, t2.labels)
        assert np.array_equal(t1.counts, t2.counts)

    def test_base_case_single_superstep(self, rng):
        res = sorting.run(rng.permutation(16).astype(float))
        assert res.supersteps == 1  # all-to-all base

    def test_bounded_degree(self, rng):
        n = 256
        res = sorting.run(rng.permutation(n).astype(float))
        assert fold_degrees(res.trace, n).max() <= sorting.BASE_SIZE


class TestCommunication:
    def test_H_tracks_theorem_4_8(self, rng):
        n = 1024
        res = sorting.run(rng.permutation(n).astype(float))
        tm = TraceMetrics(res.trace)
        ratios = [tm.H(p, 0.0) / h_sort_closed(n, p, 0.0) for p in (4, 16, 64)]
        assert max(ratios) / min(ratios) < 10.0

    def test_optimality_vs_lemma_4_7_at_sublinear_p(self, rng):
        """Theta(1)-optimality holds for p = O(n^{1-delta}) (Thm 4.8)."""
        n = 1024
        res = sorting.run(rng.permutation(n).astype(float))
        tm = TraceMetrics(res.trace)
        for p in (4, 8, 16, 32):  # p <= n^{1/2}
            assert tm.H(p, 0.0) <= 25 * sort_lower_bound(n, p)

    def test_wiseness(self, rng):
        res = sorting.run(rng.permutation(256).astype(float))
        assert measured_alpha(TraceMetrics(res.trace), 256) >= 0.25
