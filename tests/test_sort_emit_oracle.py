"""Composed Columnsort emitter against the recursive emitter it replaced.

:mod:`sort_oracles` keeps the emitter that recorded all four column sorts
of every level.  Every trace column and the sorted output must be
identical.
"""

import numpy as np
import pytest
import sort_oracles as oracle

from repro.algorithms import sorting


@pytest.mark.parametrize("n", [2, 4, 16, 32, 64, 256, 1024])
@pytest.mark.parametrize("wise", [True, False])
def test_sort_matches_recursive_emitter(n, wise):
    keys = np.random.default_rng(n).permutation(n)
    res = sorting.run(keys, wise=wise)
    trace, output = oracle.run(keys, wise=wise)
    assert res.trace.v == trace.v
    for col in ("labels", "offsets", "src", "dst"):
        assert np.array_equal(getattr(res.trace, col), getattr(trace, col)), col
    assert np.array_equal(res.output, output)
