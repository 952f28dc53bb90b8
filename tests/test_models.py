"""Unit tests for the evaluation model M(p, sigma) and D-BSP(p, g, ell)."""

import numpy as np
import pytest

from repro.core.metrics import TraceMetrics
from repro.machine.folding import F_vector, S_vector
from repro.models import (
    DBSP,
    fat_tree_dbsp,
    flat_bsp,
    geometric_dbsp,
    hypercube_dbsp,
    mesh_dbsp,
)

from conftest import all_folds, random_trace


class TestEvaluationModel:
    def test_H_formula(self, rng):
        """H = sum_i F^i + sigma * sum_i S^i (Eq. 1)."""
        t = random_trace(32, 10, rng)
        tm = TraceMetrics(t)
        for p in all_folds(32):
            for sigma in (0.0, 1.0, 7.5):
                expected = F_vector(t, p).sum() + sigma * S_vector(t, p).sum()
                assert tm.H(p, sigma) == expected

    def test_H_monotone_in_sigma(self, rng):
        tm = TraceMetrics(random_trace(32, 8, rng))
        assert tm.H(8, 5.0) >= tm.H(8, 1.0)

    def test_negative_sigma_rejected(self, rng):
        t = random_trace(8, 2, rng)
        with pytest.raises(ValueError):
            TraceMetrics(t).H(4, -1.0)

    def test_model_object(self, rng):
        """M(8, 2) is flat BSP with g = 1, ell = 2: an h-superstep costs h + 2."""
        t = random_trace(16, 5, rng)
        m = flat_bsp(8, 1.0, 2.0)
        assert all(m.superstep_cost(i, 5) == 7.0 for i in range(3))
        assert TraceMetrics(t).D_machine(m) == TraceMetrics(t).H(8, 2.0)

    def test_breakdown_sums_to_H(self, rng):
        """The per-label Eq. 1 terms F^i + sigma * S^i sum to H."""
        tm = TraceMetrics(random_trace(16, 5, rng))
        for p in all_folds(16):
            rows = tm.F(p) + 3.0 * tm.S(p)
            assert rows.shape == (p.bit_length() - 1,)
            assert rows.sum() == tm.H(p, 3.0)


class TestDBSPValidation:
    def test_accepts_admissible(self):
        DBSP(8, [4, 2, 1], [8, 4, 2])

    def test_rejects_increasing_g(self):
        with pytest.raises(ValueError):
            DBSP(8, [1, 2, 4], [8, 4, 2])

    def test_rejects_increasing_capacity_ratio(self):
        with pytest.raises(ValueError):
            DBSP(8, [4, 2, 1], [4, 4, 4])  # ell/g = 1, 2, 4 increasing

    def test_strict_false_allows_anything_positive(self):
        DBSP(8, [1, 2, 4], [1, 1, 9], strict=False)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DBSP(8, [1, 1], [1, 1])

    def test_nonpositive_g_rejected(self):
        with pytest.raises(ValueError):
            DBSP(4, [1, 0], [1, 1])


class TestDBSPCost:
    def test_D_formula(self, rng):
        """D = sum_i F^i g_i + S^i ell_i (Eq. 2)."""
        t = random_trace(32, 10, rng)
        g = [8.0, 4.0, 2.0, 1.0, 1.0]
        ell = [16.0, 8.0, 4.0, 2.0, 1.0]
        F, S = F_vector(t, 32), S_vector(t, 32)
        expected = float(F @ np.array(g) + S @ np.array(ell))
        assert TraceMetrics(t).D(32, g, ell) == pytest.approx(expected)

    def test_flat_bsp_equals_evaluation_model(self, rng):
        """With g = 1 and ell_i = sigma, D == H (Section 2 remark)."""
        tm = TraceMetrics(random_trace(32, 10, rng))
        for p in all_folds(32):
            assert tm.D_machine(flat_bsp(p, 1.0, 3.0)) == pytest.approx(tm.H(p, 3.0))

    def test_superstep_cost(self):
        m = DBSP(4, [2, 1], [10, 5])
        assert m.superstep_cost(0, 3) == 16.0
        assert m.superstep_cost(1, 3) == 8.0


class TestPresets:
    @pytest.mark.parametrize("p", [4, 16, 64, 256])
    def test_all_presets_admissible(self, p):
        for build in (
            lambda p: mesh_dbsp(p, 1),
            lambda p: mesh_dbsp(p, 2),
            lambda p: mesh_dbsp(p, 3),
            hypercube_dbsp,
            fat_tree_dbsp,
            flat_bsp,
        ):
            build(p).validate()

    def test_mesh_scaling(self):
        m = mesh_dbsp(256, d=2)
        assert m.g[0] == pytest.approx(16.0)  # sqrt(256)
        assert m.g[2] == pytest.approx(8.0)  # sqrt(64)

    def test_hypercube_constant_g(self):
        m = hypercube_dbsp(64)
        assert all(x == m.g[0] for x in m.g)

    def test_geometric_requires_admissible_ratios(self):
        geometric_dbsp(16, 8, 0.5, 16, 0.5)
        with pytest.raises(ValueError):
            geometric_dbsp(16, 8, 0.5, 16, 0.9)

    def test_capacity_ratios_nonincreasing(self):
        for build in (lambda p: mesh_dbsp(p, 2), hypercube_dbsp, fat_tree_dbsp):
            r = build(64).capacity_ratios()
            assert np.all(r[:-1] >= r[1:] - 1e-12)


class TestMetricsCache:
    def test_metrics_match_free_functions(self, rng):
        t = random_trace(32, 12, rng)
        tm = TraceMetrics(t)
        for p in all_folds(32):
            assert np.array_equal(tm.F(p), F_vector(t, p))
            assert np.array_equal(tm.S(p), S_vector(t, p))

    def test_D_machine(self, rng):
        t = random_trace(16, 6, rng)
        tm = TraceMetrics(t)
        m = mesh_dbsp(8, 2)
        assert tm.D_machine(m) == tm.D(8, m.g, m.ell)

    def test_prefix_sums(self, rng):
        t = random_trace(16, 6, rng)
        tm = TraceMetrics(t)
        assert np.array_equal(tm.prefix_F(16), np.cumsum(tm.F(16)))
