"""Tests for the network-oblivious FFT (Section 4.2)."""

import numpy as np
import pytest

from repro.algorithms import fft
from repro.core import TraceMetrics, measured_alpha
from repro.core.lower_bounds import fft_lower_bound
from repro.core.theory import h_fft_closed
from repro.machine.folding import fold_degrees


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 1024])
    def test_matches_numpy(self, rng, n):
        x = rng.random(n) + 1j * rng.random(n)
        res = fft.run(x)
        assert np.allclose(res.output, np.fft.fft(x))

    def test_real_input(self, rng):
        x = rng.random(64)
        assert np.allclose(fft.run(x).output, np.fft.fft(x))

    def test_delta_function(self):
        x = np.zeros(32, dtype=complex)
        x[0] = 1.0
        assert np.allclose(fft.run(x).output, np.ones(32))

    def test_linearity(self, rng):
        x, y = rng.random(64) + 0j, rng.random(64) + 0j
        fx = fft.run(x).output
        fy = fft.run(y).output
        fxy = fft.run(2 * x + 3 * y).output
        assert np.allclose(fxy, 2 * fx + 3 * fy)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft.run(np.zeros(12))

    def test_trace_legal(self, rng):
        fft.run(rng.random(256) + 0j).trace.validate()


class TestStructure:
    def test_specified_on_m_n(self, rng):
        res = fft.run(rng.random(64) + 0j)
        assert res.v == 64

    def test_labels_follow_recursion(self):
        """For n = 2^{2^k}: labels are (1 - 1/2^i) log n (Sec. 4.2)."""
        res = fft.run(np.zeros(16, dtype=complex))
        labels = set(res.trace.labels.tolist())
        assert labels == {0, 2, 3}  # log n = 4: 0, (1-1/2)*4, (1-1/4)*4

    def test_static_structure(self, rng):
        t1 = fft.run(rng.random(32) + 0j).trace
        t2 = fft.run(np.zeros(32, dtype=complex)).trace
        assert t1.num_supersteps == t2.num_supersteps
        assert np.array_equal(t1.labels, t2.labels)

    def test_constant_degree(self, rng):
        res = fft.run(rng.random(64) + 0j)
        assert fold_degrees(res.trace, 64).max() <= 3


class TestCommunication:
    def test_H_tracks_theorem_4_5(self, rng):
        n = 1024
        res = fft.run(rng.random(n) + 0j)
        tm = TraceMetrics(res.trace)
        ratios = [
            tm.H(p, 0.0) / h_fft_closed(n, p, 0.0) for p in (4, 32, 256, 1024)
        ]
        assert max(ratios) / min(ratios) < 8.0

    def test_optimality_vs_lemma_4_4(self, rng):
        n = 256
        res = fft.run(rng.random(n) + 0j)
        tm = TraceMetrics(res.trace)
        for p in (4, 16, 64, 256):
            assert tm.H(p, 0.0) <= 40 * fft_lower_bound(n, p)

    def test_wiseness(self, rng):
        res = fft.run(rng.random(256) + 0j)
        assert measured_alpha(TraceMetrics(res.trace), 256) >= 0.25

    def test_sigma_term_scales_with_superstep_count(self, rng):
        n = 256
        res = fft.run(rng.random(n) + 0j)
        tm = TraceMetrics(res.trace)
        h0 = tm.H(n, 0.0)
        h1 = tm.H(n, 1.0)
        assert h1 - h0 == tm.S(n).sum()
