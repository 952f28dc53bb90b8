"""Tests for the Theorem 3.4 machinery (repro.core.optimality)."""

import numpy as np
import pytest

from repro.core.metrics import TraceMetrics
from repro.core.optimality import (
    is_admissible,
    measured_beta,
    psi_window,
    transfer_factor,
    verify_transfer,
)
from repro.models import DBSP, flat_bsp, mesh_dbsp

from conftest import make_trace, random_trace


class TestTransferFactor:
    def test_formula(self):
        assert transfer_factor(1.0, 1.0) == pytest.approx(0.5)
        assert transfer_factor(0.5, 1.0) == pytest.approx(1 / 3)

    def test_monotone_in_alpha_and_beta(self):
        assert transfer_factor(0.9, 0.8) > transfer_factor(0.5, 0.8)
        assert transfer_factor(0.9, 0.8) > transfer_factor(0.9, 0.4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            transfer_factor(0.0, 1.0)
        with pytest.raises(ValueError):
            transfer_factor(1.0, 1.5)


class TestPsiWindow:
    def test_basic_window(self):
        # p* = 8: psi^m = max_k sm[k-1] 2^k / 8; psi^M analogous with min.
        lo, hi = psi_window([0, 0, 0], [8, 8, 8], 8)
        assert lo == 0.0
        assert hi == pytest.approx(min(8 * 2 / 8, 8 * 4 / 8, 8 * 8 / 8))

    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            # sm grows so fast that max_k sm 2^k/p exceeds min_k sM 2^k/p.
            psi_window([0, 0, 16], [1, 1, 16], 8)

    def test_sigma_min_above_max_rejected(self):
        with pytest.raises(ValueError):
            psi_window([2, 2, 2], [1, 3, 3], 8)

    def test_admissibility_check(self):
        m = DBSP(8, [4.0, 2.0, 1.0], [4.0, 2.0, 1.0])  # ratios all 1.0
        assert is_admissible(m, [0, 0, 0], [8, 8, 8], 8)
        # Window [2, ...]: ratio 1.0 falls below psi^m = max(2*2/8,...)=2.
        assert not is_admissible(m, [8, 8, 8], [8, 8, 8], 8)

    def test_p_larger_than_pstar_inadmissible(self):
        m = flat_bsp(16, 1.0, 1.0)
        assert not is_admissible(m, [0] * 3, [10] * 3, 8)


class TestMeasuredBeta:
    def test_self_comparison_is_one(self, rng):
        t = random_trace(16, 6, rng)
        tm = TraceMetrics(t)
        assert measured_beta(tm, tm, 8, [0.0, 1.0, 4.0]) == pytest.approx(1.0)

    def test_worse_algorithm_lower_beta(self, rng):
        v = 16
        src = np.arange(v // 2)
        good = make_trace(v, (0, src, src + v // 2))
        # 4x the communication, 4x the supersteps
        bad = make_trace(v, *[(0, src, src + v // 2)] * 4)
        beta = measured_beta(TraceMetrics(bad), TraceMetrics(good), v, [0.0, 2.0])
        assert beta == pytest.approx(0.25)


class TestVerifyTransfer:
    def test_identical_traces_hold_trivially(self, rng):
        t = random_trace(32, 8, rng)
        tm = TraceMetrics(t)
        rep = verify_transfer(tm, tm, mesh_dbsp(16, d=2), beta=1.0)
        assert rep.holds
        assert rep.ratio == pytest.approx(1.0)

    def test_report_fields(self, rng):
        t = random_trace(16, 6, rng)
        tm = TraceMetrics(t)
        rep = verify_transfer(tm, tm, flat_bsp(8, 1.0, 2.0), beta=0.5, alpha=0.5)
        assert rep.factor == pytest.approx((1 + 0.5) / (0.5 * 0.5))
        assert rep.p == 8
        assert "OK" in str(rep)

    def test_violation_detected(self):
        # Construct A with strictly larger D than the factor allows.
        v = 16
        src = np.arange(v // 2)
        fast = make_trace(v, (0, src, src + v // 2))
        slow = make_trace(v, *[(0, src, src + v // 2)] * 100)
        rep = verify_transfer(
            TraceMetrics(slow),
            TraceMetrics(fast),
            flat_bsp(v, 1.0, 0.0),
            beta=1.0,
        )
        assert not rep.holds
