"""Composed n-FFT emitter against the recursive emitter it replaced.

:mod:`fft_oracles` keeps the emitter that recorded the row FFTs of every
level separately, even when they repeat the column FFTs' sub-schedule.
Every trace column and the transform must be identical.
"""

import fft_oracles as oracle
import numpy as np
import pytest

from repro.algorithms import fft


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256, 1024, 4096])
@pytest.mark.parametrize("wise", [True, False])
def test_fft_matches_recursive_emitter(n, wise):
    rng = np.random.default_rng(n)
    x = rng.random(n) + 1j * rng.random(n)
    res = fft.run(x, wise=wise)
    trace, output = oracle.run(x, wise=wise)
    assert res.trace.v == trace.v
    for col in ("labels", "offsets", "src", "dst"):
        assert np.array_equal(getattr(res.trace, col), getattr(trace, col)), col
    assert np.array_equal(res.output, output)
