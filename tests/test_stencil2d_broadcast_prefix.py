"""Tests for stencil2d schedules, broadcast and prefix sums."""

import numpy as np
import pytest

from repro.algorithms import broadcast, prefix, stencil2d
from repro.baselines.bsp_broadcast import aware_H, optimal_kappa
from repro.core import TraceMetrics, measured_alpha
from repro.core.lower_bounds import (
    broadcast_gap_lower_bound,
    broadcast_lower_bound,
)
from repro.core.theory import h_stencil2_closed
from repro.machine.folding import fold_degrees


class TestStencil2D:
    def test_trace_legal(self):
        stencil2d.generate(8, stages=1).trace.validate()

    def test_specified_on_n_squared(self):
        sch = stencil2d.generate(8, stages=1)
        assert sch.v == 64

    def test_phases_per_level(self):
        sch = stencil2d.generate(16, stages=1)
        assert sch.phases_per_level == 4 * sch.k - 3

    def test_seventeen_stages_default(self):
        s1 = stencil2d.generate(8, stages=1)
        s17 = stencil2d.generate(8)
        assert s17.supersteps == 17 * s1.supersteps

    def test_H_tracks_theorem_4_13(self):
        n = 16
        sch = stencil2d.generate(n, stages=1)
        tm = TraceMetrics(sch.trace)
        ratios = [
            tm.H(p, 0.0) / h_stencil2_closed(n, p) for p in (4, 16, 64, 256)
        ]
        assert max(ratios) / min(ratios) < 12.0

    def test_wiseness(self):
        sch = stencil2d.generate(16, stages=1)
        assert measured_alpha(TraceMetrics(sch.trace), sch.v) >= 0.25

    def test_constant_degree_supersteps(self):
        sch = stencil2d.generate(8, stages=1)
        assert fold_degrees(sch.trace, 64).max() <= 3


class TestStencil2DAdapt:
    """The structural oracle tests one superstep per class of equal
    supersteps; a changed copy is its own class and is still tested."""

    def test_emitted_schedule_is_correct(self):
        res = stencil2d._api_emit(8, None)
        assert stencil2d._api_adapt(res) == {"correct": True}

    def test_late_copy_with_a_heavy_sender_is_caught(self):
        import dataclasses

        from repro.machine.trace import Trace

        res = stencil2d._api_emit(8, None)
        t = res.trace
        pattern = t.pattern
        repeats = np.flatnonzero(pattern != np.arange(t.num_supersteps))
        s = int(repeats[-1])  # the last copy of a repeated superstep
        lo = int(t.offsets[s])
        assert int(t.offsets[s + 1]) - lo >= 3
        src = t.src.copy()
        src[lo:lo + 3] = src[lo]  # one VP now sends 3 messages
        dst = t.dst.copy()
        dst[lo:lo + 3] = dst[lo]  # ... all along one legal pair
        mutated = Trace(t.v, t.labels, t.offsets, src, dst)
        mutated.validate()
        assert mutated.pattern[s] == s
        wrong = dataclasses.replace(res, trace=mutated)
        wrong.oracle_input = res.oracle_input
        assert stencil2d._api_adapt(wrong) == {"correct": False}


class TestBroadcast:
    @pytest.mark.parametrize("kappa", [2, 4, 8])
    def test_everyone_learns_value(self, rng, kappa):
        vals = rng.random(64)
        res = broadcast.run(vals, kappa=kappa)
        res.trace.validate()
        assert (res.output == vals[0]).all()

    def test_superstep_count(self):
        res = broadcast.run(np.zeros(64), kappa=4)
        assert res.supersteps == 3  # log_4 64

    def test_flat_single_superstep(self):
        res = broadcast.flat_run(np.zeros(32))
        res.trace.validate()
        assert res.supersteps == 1
        assert TraceMetrics(res.trace).H(32, 0.0) == 31

    def test_binary_tree_H(self):
        res = broadcast.run(np.zeros(64), kappa=2)
        tm = TraceMetrics(res.trace)
        assert tm.H(64, 0.0) == 6  # log p supersteps of degree 1
        assert tm.H(64, 3.0) == 6 + 6 * 3

    def test_folding_prunes_deep_levels(self):
        res = broadcast.run(np.zeros(256), kappa=2)
        tm = TraceMetrics(res.trace)
        assert tm.S(16).sum() == 4  # only labels < log 16 survive

    def test_aware_matches_lower_bound_shape(self):
        """Theorem 4.15's upper bound: aware H = O(LB) across sigma."""
        for p in (64, 256):
            for sigma in (0.0, 1.0, 4.0, 16.0, 64.0):
                assert aware_H(p, p, sigma) <= 4 * broadcast_lower_bound(p, sigma)

    def test_optimal_kappa(self):
        assert optimal_kappa(0.0) == 2
        assert optimal_kappa(3.0) == 4
        assert optimal_kappa(16.0) == 16
        assert optimal_kappa(17.0) == 32

    def test_gap_grows_with_sigma_window(self):
        """Theorem 4.16: oblivious algorithms lose on wide sigma windows."""
        res = broadcast.run(np.zeros(1024), kappa=2)
        tm = TraceMetrics(res.trace)
        g_narrow = broadcast.gap(tm, 1024, 1.0, 2.0)
        g_wide = broadcast.gap(tm, 1024, 1.0, 512.0)
        assert g_wide > g_narrow
        assert g_wide >= broadcast_gap_lower_bound(1024, 1.0, 512.0) / 4

    def test_no_oblivious_choice_wins_everywhere(self):
        """For every fixed kappa there is a sigma where it pays >2x LB."""
        p = 1024
        for kappa in (2, 4, 16, 64):
            tm = TraceMetrics(broadcast.run(np.zeros(p), kappa=kappa).trace)
            worst = max(
                tm.H(p, s) / broadcast_lower_bound(p, s)
                for s in (0.0, 1.0, 8.0, 64.0, 512.0)
            )
            assert worst > 2.0


class TestPrefix:
    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64, 256])
    def test_exclusive_scan(self, rng, n):
        x = rng.integers(0, 100, n)
        res = prefix.run(x)
        expected = np.concatenate(([0], np.cumsum(x)[:-1]))
        assert np.array_equal(res.output, expected)

    def test_inclusive_scan(self, rng):
        x = rng.integers(0, 100, 32)
        assert np.array_equal(prefix.run(x, inclusive=True).output, np.cumsum(x))

    def test_max_scan(self, rng):
        x = rng.integers(0, 1000, 64)
        res = prefix.run(x, op=np.maximum, identity=-(10**9), inclusive=True)
        assert np.array_equal(res.output, np.maximum.accumulate(x))

    def test_trace_legal_and_degree_one(self, rng):
        res = prefix.run(rng.integers(0, 9, 64))
        res.trace.validate()
        assert fold_degrees(res.trace, 64).max() <= 2

    def test_superstep_count_2logv(self):
        res = prefix.run(np.arange(64))
        assert res.supersteps == 2 * 6

    def test_labels_get_finer_then_coarser(self):
        res = prefix.run(np.arange(16))
        assert res.trace.labels.tolist() == [3, 2, 1, 0, 0, 1, 2, 3]
