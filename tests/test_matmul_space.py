"""Tests for the space-efficient MM (Section 4.1.1)."""

import numpy as np
import pytest

from repro.algorithms import matmul_space
from repro.algorithms.matmul_space import ROUND_A, ROUND_B
from repro.algorithms.semiring import MIN_PLUS
from repro.core import TraceMetrics, measured_alpha
from repro.core.lower_bounds import mm_space_lower_bound
from repro.core.theory import h_mm_space_closed
from repro.machine.folding import fold_degrees


class TestCorrectness:
    @pytest.mark.parametrize("side", [2, 4, 8, 16, 32])
    def test_matches_numpy(self, rng, side):
        A = rng.integers(-5, 5, (side, side)).astype(float)
        B = rng.integers(-5, 5, (side, side)).astype(float)
        res = matmul_space.run(A, B)
        assert np.allclose(res.product, A @ B)

    def test_min_plus(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        res = matmul_space.run(A, B, semiring=MIN_PLUS)
        assert np.allclose(res.product, (A[:, :, None] + B[None, :, :]).min(axis=1))

    def test_trace_legal(self, rng):
        matmul_space.run(rng.random((16, 16)), rng.random((16, 16))).trace.validate()


class TestRoundPermutations:
    def test_rounds_are_bijections(self):
        for pa, pb in (ROUND_A, ROUND_B):
            pass
        for perm in (*ROUND_A, *ROUND_B):
            assert sorted(perm.tolist()) == [0, 1, 2, 3]

    def test_rounds_cover_all_eight_products(self):
        """Together the two rounds compute every (h, l) x (l, k) pair once."""
        seen = set()
        for pa, pb in (ROUND_A, ROUND_B):
            for s in range(4):
                qa, qb = int(pa[s]), int(pb[s])
                h, l1 = qa >> 1, qa & 1
                l2, k = qb >> 1, qb & 1
                assert l1 == l2, "operand inner indices must match"
                assert (h, k) == (s >> 1, s & 1), "segment must own C_hk = s"
                seen.add((h, k, l1))
        assert len(seen) == 8


class TestStructure:
    def test_superstep_count_theta_sqrt_n(self, rng):
        """Sum over levels of Theta(2^i) supersteps = Theta(sqrt n)."""
        for side in (4, 8, 16):
            n = side * side
            res = matmul_space.run(rng.random((side, side)), rng.random((side, side)))
            assert res.supersteps == 2 * (side - 1)  # sum 2^{i+1}, i < log4 n

    def test_labels_even(self, rng):
        res = matmul_space.run(rng.random((8, 8)), rng.random((8, 8)))
        assert (res.trace.labels % 2 == 0).all()

    def test_constant_degree_per_superstep(self, rng):
        side = 16
        n = side * side
        res = matmul_space.run(rng.random((side, side)), rng.random((side, side)))
        # 2 operands + dummies
        assert fold_degrees(res.trace, n).max() <= 4

    def test_memory_blowup_constant(self, rng):
        res = matmul_space.run(rng.random((8, 8)), rng.random((8, 8)))
        assert res.max_entries_per_vp == 3


class TestCommunication:
    def test_H_tracks_section_4_1_1(self, rng):
        side = 32
        n = side * side
        res = matmul_space.run(rng.random((side, side)), rng.random((side, side)))
        tm = TraceMetrics(res.trace)
        ratios = [tm.H(p, 0.0) / h_mm_space_closed(n, p, 0.0) for p in (4, 16, 64, 256)]
        assert max(ratios) / min(ratios) < 6.0

    def test_against_irony_toledo_tiskin_bound(self, rng):
        side = 16
        n = side * side
        res = matmul_space.run(rng.random((side, side)), rng.random((side, side)))
        tm = TraceMetrics(res.trace)
        for p in (16, 64, 256):
            assert tm.H(p, 0.0) <= 30 * mm_space_lower_bound(n, p)

    def test_wiseness(self, rng):
        res = matmul_space.run(rng.random((16, 16)), rng.random((16, 16)))
        assert measured_alpha(TraceMetrics(res.trace), res.v) >= 0.25

    def test_more_communication_than_8way_at_full_fold(self, rng):
        """The space/communication trade-off: n/sqrt(p) >= n/p^{2/3}."""
        from repro.algorithms import matmul

        side = 16
        A, B = rng.random((side, side)), rng.random((side, side))
        n = side * side
        h_space = TraceMetrics(matmul_space.run(A, B).trace).H(n, 0.0)
        h_fast = TraceMetrics(matmul.run(A, B).trace).H(n, 0.0)
        assert h_space > h_fast


class TestAdaptOracle:
    def test_registry_check_sweep_reports_correct(self):
        from repro.api import ExperimentPlan

        plan = ExperimentPlan.grid(
            algorithms=["matmul-space"], ns=[64, 256], ps=[4]
        )
        frame = plan.run(check=True)
        assert [row["correct"] for row in frame.as_dicts()] == [True, True]

    def test_oracle_rejects_wrong_structure(self, rng):
        from repro.algorithms.matmul_space import _api_adapt

        res = matmul_space.run(rng.random((8, 8)), rng.random((8, 8)))
        res.oracle_input = (np.eye(8), np.eye(8))  # not the real inputs
        assert _api_adapt(res) == {"correct": False}

    def test_oracle_skips_bare_results(self, rng):
        from repro.algorithms.matmul_space import _api_adapt

        res = matmul_space.run(rng.random((4, 4)), rng.random((4, 4)))
        assert _api_adapt(res) == {}
