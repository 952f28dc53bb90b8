"""Tests for Lemmas 3.1/3.3, wiseness (Def 3.2) and fullness (Def 5.2).

Lemma 3.1 is a *theorem about all traces*: the property-based tests here
check it on arbitrary random traces — any violation would indicate a bug
in the folding/degree machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fullness import fullness_profile, is_full, measured_gamma
from repro.core.lemmas import (
    check_lemma_3_1,
    lemma_3_1_slack,
    lemma_3_3_holds,
    weighted_sum_dominates,
)
from repro.core.metrics import TraceMetrics
from repro.core.wiseness import is_wise, measured_alpha, wiseness_profile

from conftest import make_trace, random_trace


class TestLemma31:
    @given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_holds_on_random_traces(self, seed, logv, steps):
        rng = np.random.default_rng(seed)
        t = random_trace(1 << logv, steps, rng)
        tm = TraceMetrics(t)
        assert check_lemma_3_1(tm, 1 << logv)

    def test_slack_tight_for_perfectly_wise_pattern(self):
        # Every VP of the first half sends one message across the middle:
        # F^0(2^j) = v/2^j for all folds, so slack is exactly 1 everywhere.
        v = 16
        src = np.arange(v // 2)
        t = make_trace(v, (0, src, src + v // 2))
        slack = lemma_3_1_slack(TraceMetrics(t), v)
        assert np.allclose(slack, 1.0)

    def test_slack_loose_for_point_to_point(self):
        # Section 5's example: one VP sends n messages to one VP.
        v = 16
        t = make_trace(v, (0, np.zeros(32, np.int64), np.full(32, v // 2, np.int64)))
        slack = lemma_3_1_slack(TraceMetrics(t), v)
        # At fold 2^j the single-processor degree is the whole 32 while the
        # bound allows (v/2^j)*32: slack = 2^j/v.
        assert slack[0] == pytest.approx(2 / v)
        assert slack[-1] == pytest.approx(1.0)


class TestLemma33:
    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=10),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_holds_under_hypotheses(self, ys, data):
        Y = np.array(ys)
        # Draw X dominated in prefix sums by Y.
        X = np.empty_like(Y)
        slackness = 0.0
        for i in range(len(Y)):
            xi = data.draw(st.floats(-10, float(Y[i]) + slackness))
            X[i] = xi
            slackness += float(Y[i]) - xi
        # Draw a non-increasing non-negative f.
        f0 = data.draw(st.floats(0, 10))
        f = [f0]
        for _ in range(len(Y) - 1):
            f.append(data.draw(st.floats(0, f[-1])))
        assert lemma_3_3_holds(X, Y, np.array(f))

    def test_counterexample_without_monotonicity(self):
        # With increasing f the conclusion fails: hypotheses checked first.
        X, Y, f = [0, 2], [1, 1], [0.0, 1.0]
        with pytest.raises(ValueError):
            lemma_3_3_holds(X, Y, f)

    def test_weighted_sum_dominates_sign(self):
        assert weighted_sum_dominates([1, 1], [2, 2], [1.0, 0.5]) >= 0


class TestWiseness:
    def test_perfect_pattern_alpha_one(self):
        v = 32
        halves = [(label, v >> (label + 1)) for label in range(5)]
        t = make_trace(
            v, *((label, np.arange(h), np.arange(h) + h) for label, h in halves)
        )
        assert measured_alpha(TraceMetrics(t), v) >= 1.0 - 1e-9

    def test_point_to_point_alpha_low(self):
        v = 32
        t = make_trace(v, (0, np.zeros(64, np.int64), np.full(64, v // 2, np.int64)))
        # (alpha, p)-wise only for alpha = O(1/p): Section 5's observation.
        assert measured_alpha(TraceMetrics(t), v) == pytest.approx(2 / v)

    def test_wiseness_monotone_in_p(self, rng):
        """(alpha, p)-wise implies (alpha, p')-wise for p' <= p (Sec. 3)."""
        t = random_trace(64, 10, rng)
        tm = TraceMetrics(t)
        alphas = [measured_alpha(tm, p) for p in (4, 8, 16, 32, 64)]
        for small, big in zip(alphas, alphas[1:]):
            assert small >= big - 1e-9

    def test_is_wise_threshold(self, rng):
        t = random_trace(32, 8, rng)
        tm = TraceMetrics(t)
        a = measured_alpha(tm, 32)
        if a > 0:
            assert is_wise(tm, 32, a)
            assert not is_wise(tm, 32, min(1.0, a * 1.5 + 1e-6))

    def test_profile_length(self, rng):
        t = random_trace(32, 8, rng)
        assert wiseness_profile(TraceMetrics(t), 16).shape == (4,)

    def test_lemma31_caps_wiseness_at_one(self, rng):
        # alpha can never exceed 1 (that's Lemma 3.1).
        for seed in range(5):
            t = random_trace(32, 6, np.random.default_rng(seed))
            assert measured_alpha(TraceMetrics(t), 32) <= 1.0 + 1e-9


class TestFullness:
    def test_point_to_point_is_full_but_not_wise(self):
        """Section 5's running example: (Theta(1), p)-full, O(1/p)-wise."""
        v = 32
        t = make_trace(v, (0, np.zeros(v, np.int64), np.full(v, v // 2, np.int64)))
        tm = TraceMetrics(t)
        assert measured_gamma(tm, v) >= 1.0
        assert measured_alpha(tm, v) <= 4 / v

    def test_empty_trace_vacuous(self):
        tm = TraceMetrics(make_trace(8))
        assert measured_gamma(tm, 8) == np.inf

    def test_silent_supersteps_hurt_fullness(self):
        v = 16
        t = make_trace(v, (0, [0], [8]), *[(0, [], [])] * 9)
        # 10 supersteps, one message: the binding fold is j=1 where the
        # denominator is (v/2) * 10, so gamma = 2/(10 v) = 0.0125.
        g = measured_gamma(TraceMetrics(t), v)
        assert g == pytest.approx(2 / (10 * v))

    def test_is_full_threshold(self):
        v = 16
        src = np.arange(v // 2)
        tm = TraceMetrics(make_trace(v, (0, src, src + v // 2)))
        assert is_full(tm, v, 1.0)

    def test_profile_vacuous_is_inf(self, rng):
        t = make_trace(16, (3, [0], [1]))
        prof = fullness_profile(TraceMetrics(t), 8)
        # No superstep survives folds below label 3: ratios are inf.
        assert np.isinf(prof).all()
