"""Whole-array stencil emitters against the loop emitters they replaced.

:mod:`stencil_oracles` keeps the per-task, per-row stencil1d emitters and
the stage-by-stage stencil2d ``generate``.  Every trace column must be
identical, and grids equal exactly (NaN-aware: nodes outside a diamond
stay NaN).
"""

import numpy as np
import pytest
import stencil_oracles as oracle

from repro.algorithms import stencil1d, stencil2d


def assert_same_trace(got, want):
    assert got.v == want.v
    for col in ("labels", "offsets", "src", "dst"):
        assert np.array_equal(getattr(got, col), getattr(want, col)), col


def max_rule(left, centre, right):
    return np.maximum(np.maximum(left, centre), right)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128])
@pytest.mark.parametrize("k", [None, 2, 4])
@pytest.mark.parametrize("wise", [True, False])
@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_run_matches_loop_emitter(n, k, wise, fill):
    x0 = np.random.default_rng(n).random(n)
    res = stencil1d.run(x0, k=k, wise=wise, fill=fill)
    trace, grid = oracle.run(x0, k=k, wise=wise, fill=fill)
    assert_same_trace(res.trace, trace)
    assert np.array_equal(res.grid, grid, equal_nan=True)
    assert np.array_equal(res.final, grid[n - 1])


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128])
@pytest.mark.parametrize("k", [None, 2, 4])
def test_run_custom_rule_matches_loop_emitter(n, k):
    x0 = np.random.default_rng(n).random(n)
    res = stencil1d.run(x0, k=k, rule=max_rule)
    trace, grid = oracle.run(x0, k=k, rule=max_rule)
    assert_same_trace(res.trace, trace)
    assert np.array_equal(res.grid, grid, equal_nan=True)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("k", [None, 2, 4])
@pytest.mark.parametrize("wise", [True, False])
def test_diamond_matches_loop_emitter(n, k, wise):
    res = stencil1d.evaluate_diamond(n, seed=0.75, k=k, wise=wise)
    trace, grid = oracle.evaluate_diamond(n, seed=0.75, k=k, wise=wise)
    assert_same_trace(res.trace, trace)
    assert np.array_equal(res.grid, grid, equal_nan=True)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("k", [None, 2])
@pytest.mark.parametrize("wise", [True, False])
@pytest.mark.parametrize("stages", [0, 1, 3, 17])
def test_stencil2d_matches_per_stage_generate(n, k, wise, stages):
    res = stencil2d.generate(n, k=k, wise=wise, stages=stages)
    assert_same_trace(
        res.trace, oracle.generate(n, k=k, wise=wise, stages=stages)
    )


def test_stencil2d_zero_stages_is_empty():
    res = stencil2d.generate(8, stages=0)
    assert res.supersteps == 0
    assert res.messages == 0
