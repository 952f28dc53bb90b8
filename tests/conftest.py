"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.trace import Trace
from repro.util.intmath import ilog2


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_trace(
    v: int,
    num_supersteps: int,
    rng: np.random.Generator,
    *,
    max_messages: int = 64,
) -> Trace:
    """A random legal trace on M(v): every message obeys its label's cluster."""
    logv = ilog2(v)
    trace = Trace(v)
    for _ in range(num_supersteps):
        label = int(rng.integers(0, max(1, logv)))
        m = int(rng.integers(0, max_messages + 1))
        src = rng.integers(0, v, size=m)
        if label > 0:
            shift = logv - label
            low = rng.integers(0, 1 << shift, size=m)
            dst = (src >> shift << shift) | low
        else:
            dst = rng.integers(0, v, size=m)
        trace.append(label, src, dst)
    return trace


@pytest.fixture
def small_trace(rng):
    return random_trace(16, 6, rng)


def oracle_rows(plan, *, check: bool = False) -> tuple:
    """Per-cell reference rows of ``plan``: the test oracle of every run.

    Prepares every source, then evaluates the cells one by one in cell
    order on cold caches — no stage graph, no substrate, no store.  Plan
    runs must reproduce these rows bit for bit.
    """
    from repro import clear_caches
    from repro.api.plan import _PlanRuntime

    clear_caches()
    runtime = _PlanRuntime(plan, check=check)
    runtime.prepare()
    return tuple(runtime.eval_cell(i) for i in range(len(plan)))


def all_folds(v: int):
    """All power-of-two fold sizes 2..v."""
    out = []
    p = 2
    while p <= v:
        out.append(p)
        p *= 2
    return out
