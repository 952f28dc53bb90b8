"""Tests for the network-oblivious matrix multiplication (Section 4.1)."""

import numpy as np
import pytest

from repro.algorithms import matmul
from repro.algorithms.semiring import BOOLEAN, MIN_PLUS
from repro.core import TraceMetrics, measured_alpha
from repro.core.lower_bounds import mm_lower_bound
from repro.core.theory import h_mm_closed
from repro.machine.folding import fold_degrees

from conftest import all_folds


class TestCorrectness:
    @pytest.mark.parametrize("side", [4, 8, 16, 32])
    def test_matches_numpy(self, rng, side):
        A = rng.integers(-5, 5, (side, side)).astype(float)
        B = rng.integers(-5, 5, (side, side)).astype(float)
        res = matmul.run(A, B)
        assert np.allclose(res.product, A @ B)

    def test_identity(self):
        I = np.eye(8)
        res = matmul.run(I, I)
        assert np.allclose(res.product, I)

    def test_min_plus_semiring(self, rng):
        A = rng.random((8, 8))
        B = rng.random((8, 8))
        res = matmul.run(A, B, semiring=MIN_PLUS)
        ref = (A[:, :, None] + B[None, :, :]).min(axis=1)
        assert np.allclose(res.product, ref)

    def test_boolean_semiring(self, rng):
        A = (rng.random((8, 8)) > 0.7).astype(float)
        B = (rng.random((8, 8)) > 0.7).astype(float)
        res = matmul.run(A, B, semiring=BOOLEAN)
        assert np.array_equal(res.product.astype(bool), (A @ B) > 0)

    def test_rejects_tiny_and_nonsquare(self):
        with pytest.raises(ValueError):
            matmul.run(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            matmul.run(np.zeros((4, 8)), np.zeros((8, 4)))
        with pytest.raises(ValueError):
            matmul.run(np.eye(6), np.eye(6))  # non power of two

    def test_trace_is_legal(self, rng):
        res = matmul.run(rng.random((8, 8)), rng.random((8, 8)))
        res.trace.validate()


class TestStructure:
    def test_specified_on_m_n(self, rng):
        side = 8
        res = matmul.run(rng.random((side, side)), rng.random((side, side)))
        assert res.v == side * side == matmul.specification_size(side)

    def test_static_trace_input_independent(self, rng):
        """Static algorithm: identical (label, src, dst) for any input."""
        a1 = matmul.run(rng.random((8, 8)), rng.random((8, 8))).trace
        a2 = matmul.run(np.eye(8), np.ones((8, 8))).trace
        assert a1.num_supersteps == a2.num_supersteps
        for s in range(a1.num_supersteps):
            (l1, s1, d1), (l2, s2, d2) = a1.superstep(s), a2.superstep(s)
            assert l1 == l2
            assert np.array_equal(np.sort(s1 * a1.v + d1), np.sort(s2 * a2.v + d2))

    def test_superstep_labels_multiples_of_three(self, rng):
        """Level-i supersteps carry label 3i (8 segments per level)."""
        res = matmul.run(rng.random((8, 8)), rng.random((8, 8)))
        labels = set(res.trace.labels.tolist())
        base_label = max(labels)
        assert all(l % 3 == 0 or l == base_label for l in labels)

    def test_level_degrees_scale_like_2i(self, rng):
        """Each VP sends/receives O(2^i) in level-i supersteps (Sec. 4.1)."""
        side = 16
        n = side * side
        res = matmul.run(rng.random((side, side)), rng.random((side, side)))
        for label, degree in zip(res.trace.labels, fold_degrees(res.trace, n)):
            if label % 3 == 0 and label < 6:
                assert degree <= 8 * (1 << (label // 3))


class TestCommunication:
    def test_H_tracks_theorem_4_2(self, rng):
        """H(n, p, 0) / (n / p^{2/3}) stays within a constant band."""
        side = 16
        n = side * side
        res = matmul.run(rng.random((side, side)), rng.random((side, side)))
        tm = TraceMetrics(res.trace)
        ratios = [
            tm.H(p, 0.0) / h_mm_closed(n, p, 0.0) for p in (8, 64, 256)
        ]
        assert max(ratios) / min(ratios) < 8.0

    def test_optimality_ratio_vs_lemma_4_1(self, rng):
        side = 16
        n = side * side
        res = matmul.run(rng.random((side, side)), rng.random((side, side)))
        tm = TraceMetrics(res.trace)
        for p in (16, 64, 256):
            assert tm.H(p, 0.0) <= 30 * mm_lower_bound(n, p)

    def test_wise_variant_is_constant_wise(self, rng):
        side = 16
        res = matmul.run(rng.random((side, side)), rng.random((side, side)))
        assert measured_alpha(TraceMetrics(res.trace), res.v) >= 0.25

    def test_wise_flag_only_adds_messages(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        raw = matmul.run(A, B, wise=False)
        wise = matmul.run(A, B, wise=True)
        assert wise.messages > raw.messages
        assert np.allclose(raw.product, wise.product)

    def test_H_decreases_with_p(self, rng):
        side = 16
        res = matmul.run(rng.random((side, side)), rng.random((side, side)))
        tm = TraceMetrics(res.trace)
        hs = [tm.H(p, 0.0) for p in all_folds(res.v)]
        assert all(a >= b for a, b in zip(hs, hs[1:]))
