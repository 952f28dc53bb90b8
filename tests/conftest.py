"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.program import ScheduleBuilder
from repro.machine.trace import Trace
from repro.networks.policy import DimensionOrderPolicy, ValiantPolicy
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
    builder = ScheduleBuilder(v)
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
        builder.superstep(label, src, dst)
    return builder.build()


def make_trace(v: int, *supersteps) -> Trace:
    """A trace on M(v) recorded from ``(label, src, dst)`` supersteps."""
    builder = ScheduleBuilder(v)
    for label, src, dst in supersteps:
        builder.superstep(label, src, dst)
    return builder.build()


@pytest.fixture
def small_trace(rng):
    return random_trace(16, 6, rng)


# Malformed CSR records on M(8): (labels, offsets, src, dst, the words of
# the broken invariant in the ValueError).  load_trace and Trace.validate
# both check through check_csr and must reject each of them.
MALFORMED_CSR = [
    # offsets starting past 0 (2 messages, 1 counted)
    pytest.param([0], [1, 3], [0, 1], [1, 0], "from 0", id="starts-late"),
    # offsets past both ends (2 messages, none counted)
    pytest.param([0, 0], [2, 3, 4], [0, 1], [1, 0], "from 0", id="shifted"),
    pytest.param([0, 0], [0, 2], [0, 1], [1, 0], "labels.size + 1",
                 id="offsets-short"),
    pytest.param([0], [0, 1, 2], [0, 1], [1, 0], "labels.size + 1",
                 id="offsets-long"),
    pytest.param([0, 0], [0, 3, 2], [0, 1], [1, 0], "decrease",
                 id="decreasing"),
    pytest.param([0], [0, 1], [0, 1], [1, 0], "message count",
                 id="ends-short"),
    pytest.param([0], [0, 2], [0, 1], [1, 0, 2], "messages but dst has",
                 id="src-dst-lengths"),
    pytest.param([0], [0, 2], [[0, 1]], [[1, 0]], "1-D", id="2d-endpoints"),
]


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


def route_loads(topo, src, dst) -> tuple[np.ndarray, int]:
    """Loads and dilation of one batch: ``route_loads_multi`` on one segment."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    loads, dil = topo.route_loads_multi(src, dst, np.zeros(src.size, np.int64), 1)
    return loads[0], int(dil[0])


def oracle_legs(policy, topo, step, label, src, dst) -> list:
    """One superstep's ``(src, dst)`` phase legs, built apart from the
    policy's ``phase_legs``: the identity for dimension-order, and
    Valiant's two legs through ``intermediates_reference`` (its hash
    computed one message at a time in Python ints)."""
    if isinstance(policy, ValiantPolicy):
        mid = policy.intermediates_reference(topo, step, label, src)
        return [(src, mid), (mid, dst)]
    assert isinstance(policy, DimensionOrderPolicy), policy
    return [(src, dst)]
