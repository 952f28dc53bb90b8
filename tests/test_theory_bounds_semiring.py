"""Tests for closed forms (core.theory), lower bounds, semirings, dummy messages."""

import numpy as np
import pytest

from repro.algorithms._common import SendBuffer, add_wiseness_dummies, wiseness_dummies
from repro.algorithms.semiring import BOOLEAN, MAX_TIMES, MIN_PLUS, STANDARD
from repro.core.lower_bounds import (
    broadcast_gap_lower_bound,
    broadcast_lower_bound,
    broadcast_optimal_supersteps,
    fft_lower_bound,
    mm_lower_bound,
    mm_space_lower_bound,
    sort_lower_bound,
    stencil_lower_bound,
)
from repro.core.theory import (
    h_fft_closed,
    h_fft_recurrence,
    h_mm_closed,
    h_mm_recurrence,
    h_mm_space_closed,
    h_mm_space_recurrence,
    h_sort_closed,
    h_sort_recurrence,
    h_stencil1_closed,
    h_stencil2_closed,
    sort_exponent,
    stencil_k,
)


class TestRecurrencesMatchClosedForms:
    @pytest.mark.parametrize("n,p", [(4096, 64), (4096, 512), (65536, 8)])
    def test_mm(self, n, p):
        for sigma in (0.0, 4.0):
            rec = h_mm_recurrence(n, p, sigma)
            closed = h_mm_closed(n, p, sigma)
            assert 0.2 <= rec / closed <= 5.0

    @pytest.mark.parametrize("n,p", [(4096, 64), (65536, 256)])
    def test_mm_space(self, n, p):
        rec = h_mm_space_recurrence(n, p, 0.0)
        closed = h_mm_space_closed(n, p, 0.0)
        assert 0.2 <= rec / closed <= 5.0

    @pytest.mark.parametrize("n,p", [(65536, 16), (65536, 256)])
    def test_fft(self, n, p):
        rec = h_fft_recurrence(n, p, 0.0)
        closed = h_fft_closed(n, p, 0.0)
        assert 0.1 <= rec / closed <= 10.0

    @pytest.mark.parametrize("n,p", [(2**12, 8), (2**18, 64)])
    def test_sort(self, n, p):
        rec = h_sort_recurrence(n, p, 0.0)
        closed = h_sort_closed(n, p, 0.0)
        assert 0.05 <= rec / closed <= 20.0

    def test_sort_exponent_value(self):
        assert sort_exponent == pytest.approx(np.log(4) / np.log(1.5))

    def test_stencil_k_powers(self):
        assert stencil_k(16) == 4
        assert stencil_k(512) == 8
        assert stencil_k(2) == 2

    def test_stencil_closed_forms_monotone(self):
        assert h_stencil1_closed(256, 1) > h_stencil1_closed(64, 1)
        assert h_stencil2_closed(64, 16) > h_stencil2_closed(64, 64)


class TestLowerBounds:
    def test_mm_shapes(self):
        assert mm_lower_bound(4096, 64) == pytest.approx(4096 / 16)
        assert mm_space_lower_bound(4096, 64) == pytest.approx(512)
        # space-constrained bound dominates the unconstrained one
        assert mm_space_lower_bound(4096, 64) > mm_lower_bound(4096, 64)

    def test_fft_sort_identical(self):
        assert fft_lower_bound(1024, 16, 2.0) == sort_lower_bound(1024, 16, 2.0)

    def test_fft_bound_at_p_equals_n(self):
        # paper_log keeps log(n/p) = 1 at p = n.
        assert fft_lower_bound(256, 256) == pytest.approx(256 * 8 / 256)

    def test_stencil_dims(self):
        assert stencil_lower_bound(64, 1, 16) == pytest.approx(64.0)
        assert stencil_lower_bound(64, 2, 16) == pytest.approx(64**2 / 4)
        with pytest.raises(ValueError):
            stencil_lower_bound(64, 0, 4)

    def test_broadcast_bound_regimes(self):
        # sigma <= 2: bound ~ 2 log p.
        assert broadcast_lower_bound(256, 0.0) == pytest.approx(16.0)
        # large sigma: bound ~ sigma log_sigma p.
        b = broadcast_lower_bound(256, 16.0)
        assert b == pytest.approx(16.0 * 2.0)

    def test_broadcast_supersteps(self):
        assert broadcast_optimal_supersteps(256, 16.0) == 2
        assert broadcast_optimal_supersteps(256, 0.0) == 8

    def test_gap_bound_monotone_in_sigma2(self):
        g1 = broadcast_gap_lower_bound(1024, 2.0, 16.0)
        g2 = broadcast_gap_lower_bound(1024, 2.0, 1024.0)
        assert g2 > g1
        with pytest.raises(ValueError):
            broadcast_gap_lower_bound(64, 10.0, 1.0)


class TestSemirings:
    def test_standard(self, rng):
        a, b = rng.random((4, 4)), rng.random((4, 4))
        assert np.allclose(STANDARD.matmul(a, b), a @ b)
        assert STANDARD.zero == 0.0

    def test_min_plus_identity(self):
        a = np.full((3, 3), np.inf)
        np.fill_diagonal(a, 0.0)
        b = np.arange(9.0).reshape(3, 3)
        assert np.allclose(MIN_PLUS.matmul(a, b), b)

    def test_min_plus_shortest_paths(self):
        inf = np.inf
        w = np.array([[0, 1, inf], [inf, 0, 1], [inf, inf, 0]])
        two_hop = MIN_PLUS.matmul(w, w)
        assert two_hop[0, 2] == 2.0

    def test_max_times(self, rng):
        a, b = rng.random((3, 3)), rng.random((3, 3))
        ref = (a[:, :, None] * b[None, :, :]).max(axis=1)
        assert np.allclose(MAX_TIMES.matmul(a, b), ref)

    def test_boolean(self):
        a = np.array([[1, 0], [0, 0]], dtype=float)
        b = np.array([[0, 1], [0, 0]], dtype=float)
        assert BOOLEAN.matmul(a, b)[0, 1] == 1

    def test_mul_consistent_with_matmul_1x1(self, rng):
        for sr in (STANDARD, MIN_PLUS, MAX_TIMES):
            x, y = rng.random((1, 1)), rng.random((1, 1))
            assert np.allclose(sr.matmul(x, y), sr.mul(x, y))


class TestWisenessDummies:
    @staticmethod
    def _dummies(v, label, multiplicity):
        from repro.machine.program import ScheduleBuilder

        buf = SendBuffer()
        add_wiseness_dummies(buf, v, label, multiplicity)
        b = ScheduleBuilder(v)
        buf.flush(b, label)
        return b.build()

    def test_pattern(self):
        s = self._dummies(16, 1, 2)
        assert s.total_messages == 4 * 2  # v/2^{label+1} senders x multiplicity
        assert np.array_equal(s.dst, s.src + 4)
        s.validate()  # the dummies stay inside the label-cluster

    def test_degenerate(self):
        assert self._dummies(2, 1, 1).total_messages == 0
        assert self._dummies(16, 1, 0).total_messages == 0

    def test_batch_matches_one_superstep_at_a_time(self):
        labels = np.array([0, 1, 3, 4, 2])
        mult = np.array([1, 3, 2, 1, 0])
        counts, src, dst = wiseness_dummies(16, labels, mult)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for s, (label, m) in enumerate(zip(labels, mult)):
            one = self._dummies(16, int(label), int(m))
            lo, hi = offsets[s], offsets[s + 1]
            assert np.array_equal(src[lo:hi], one.src)
            assert np.array_equal(dst[lo:hi], one.dst)
