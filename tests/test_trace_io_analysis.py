"""Tests for trace persistence and the plan-pivot sweep tables."""

import re

import numpy as np
import pytest

from repro.api import ExperimentPlan
from repro.core import measured_alpha, measured_gamma
from repro.core.lower_bounds import mm_lower_bound
from repro.core.metrics import TraceMetrics
from repro.machine.program import ScheduleBuilder
from repro.machine.trace_io import load_trace, save_trace

from conftest import MALFORMED_CSR, random_trace


class TestTraceIO:
    def test_roundtrip(self, rng, tmp_path):
        t = random_trace(64, 10, rng)
        path = tmp_path / "trace.npz"
        save_trace(t, path)
        back = load_trace(path)
        assert back.v == t.v
        assert back.num_supersteps == t.num_supersteps
        for col in ("labels", "offsets", "src", "dst"):
            assert np.array_equal(getattr(t, col), getattr(back, col)), col

    def test_roundtrip_preserves_metrics(self, rng, tmp_path):
        t = random_trace(32, 8, rng)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        back = load_trace(path)
        for p in (4, 16, 32):
            assert TraceMetrics(back).H(p, 2.0) == TraceMetrics(t).H(p, 2.0)

    def test_empty_trace(self, tmp_path):
        t = ScheduleBuilder(8).build()
        path = tmp_path / "empty.npz"
        save_trace(t, path)
        assert load_trace(path).num_supersteps == 0

    def test_algorithm_trace_roundtrip(self, rng, tmp_path):
        from repro.algorithms import fft

        t = fft.run(rng.random(64) + 0j).trace
        path = tmp_path / "fft.npz"
        save_trace(t, path)
        assert load_trace(path).total_messages == t.total_messages

    def test_version_check(self, rng, tmp_path):
        t = random_trace(8, 2, rng)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        data = dict(np.load(path))
        data["format_version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_trace(path)

    @pytest.mark.parametrize(
        "labels, offsets, src, dst, invariant", MALFORMED_CSR
    )
    def test_malformed_csr_rejected(self, tmp_path, labels, offsets, src, dst,
                                    invariant):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            format_version=np.int64(1),
            v=np.int64(8),
            labels=np.array(labels, np.int64),
            offsets=np.array(offsets, np.int64),
            src=np.array(src, np.int64),
            dst=np.array(dst, np.int64),
        )
        with pytest.raises(ValueError, match=re.escape(invariant)):
            load_trace(path)


def _h_table(trace, ps, sigmas):
    """The (p, sigma) table of H — Eq. 1 — as a plan pivot."""
    frame = ExperimentPlan.from_trace(trace, ps=ps, sigmas=sigmas).run()
    return frame.pivot("p", "sigma", "H", name="H(n, p, sigma)")


class TestSweeps:
    def test_h_grid_matches_metrics(self, rng):
        t = random_trace(64, 8, rng)
        table = _h_table(t, ps=[4, 16], sigmas=(0.0, 2.0))
        tm = TraceMetrics(t)
        assert table.as_dict()[4][0.0] == tm.H(4, 0.0)
        assert table.as_dict()[16][2.0] == tm.H(16, 2.0)

    def test_h_grid_str(self, rng):
        t = random_trace(16, 4, rng)
        table = _h_table(t, ps=[4, 16], sigmas=(0.0, 1.0))
        assert "H(n, p, sigma)" in str(table)

    def test_d_grid_presets(self, rng):
        from repro.models.presets import PRESETS

        t = random_trace(64, 8, rng)
        frame = ExperimentPlan.from_trace(
            t, ps=[16], machines=tuple(PRESETS), machine_builders=PRESETS
        ).run()
        table = frame.pivot("p", "machine", "D")
        assert "mesh2d" in table.columns
        assert all(x >= 0 for x in table.rows[0])

    def test_optimality_grid_flatness(self, rng):
        from repro.algorithms import matmul

        side = 8
        res = matmul.run(rng.random((side, side)), rng.random((side, side)))
        ps = [4, 16, 64]
        table = _h_table(res.trace, ps=ps, sigmas=(0.0, 4.0))
        col = [h / mm_lower_bound(side * side, p, 0.0)
               for p, h in zip(ps, table.column(0.0))]
        assert max(col) / min(col) < 8.0

    def test_wiseness_report(self, rng):
        from repro.algorithms import fft

        tm = TraceMetrics(fft.run(rng.random(64) + 0j).trace)
        assert 0 < measured_alpha(tm, 64) <= 1.0
        assert measured_gamma(tm, 64) > 0

    def test_column_accessor(self, rng):
        t = random_trace(16, 4, rng)
        table = _h_table(t, ps=[4, 16], sigmas=(0.0, 1.0))
        assert len(table.column(1.0)) == 2
