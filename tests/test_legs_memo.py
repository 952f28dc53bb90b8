"""Phase legs are drawn once per (folded trace, p, policy) and shared by
the analytic router and the cycle simulator: ``fold_legs`` memoises them
in the trace's own fold LRU, keyed by ``p`` and the policy's
``cache_key()``."""

from collections import Counter

import numpy as np
import pytest

import repro
from conftest import random_trace
from repro.api import ExperimentPlan
from repro.exec import ShmSubstrate, shutdown_pool
from repro.machine.folding import fold_trace
from repro.machine.trace import Trace
from repro.networks import by_name, route_trace
from repro.networks.policy import DimensionOrderPolicy, ValiantPolicy
from repro.networks.routing import fold_legs

TOPOLOGIES = ("ring", "mesh2d", "torus2d", "hypercube", "fat-tree", "butterfly")


class CountingValiant(ValiantPolicy):
    """A ``ValiantPolicy`` recording the (folded source, p, seed) of every
    ``phase_legs`` call it serves in this process."""

    calls: Counter = Counter()

    def phase_legs(self, topo, labels, offsets, src, dst):
        fold = (labels.tobytes(), offsets.tobytes(), src.tobytes())
        CountingValiant.calls[(fold, topo.p, self.seed)] += 1
        return super().phase_legs(topo, labels, offsets, src, dst)


def _plan() -> ExperimentPlan:
    cells = []
    for algorithm, n in (("fft", 64), ("stencil1d", 16)):
        cells.extend(ExperimentPlan.grid(
            algorithms=[algorithm], ns=[n], ps=[4, 8], topologies=TOPOLOGIES,
            policies=[CountingValiant(0), CountingValiant(1)],
            modes=["analytic", "sim"],
        ).cells)
    return ExperimentPlan(cells, name="legs-memo")


def test_one_draw_per_source_p_seed(monkeypatch):
    # The REPRO_SANITIZE cross-check's reference engine draws its own
    # legs on purpose (the oracle bypasses the memo); count the plan's.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plan = _plan()
    repro.clear_caches()
    CountingValiant.calls.clear()
    serial = plan.run(executor="serial")
    # 2 sources x 2 p x 2 seeds, each drawn once for 6 topologies x
    # analytic+sim cells.
    assert len(serial) == 2 * 2 * 6 * 2 * 2
    assert len(CountingValiant.calls) == 2 * 2 * 2
    assert set(CountingValiant.calls.values()) == {1}

    repro.clear_caches()
    try:
        shm = plan.run(executor=ShmSubstrate(workers=2, force=True))
    finally:
        shutdown_pool()
    assert shm.metadata["executor_effective"] == "shm"
    assert shm.rows == serial.rows


def test_wide_p_sweep_draws_once_without_evictions(monkeypatch):
    # Every p a trace can fold to, under both shipped policies, fits in
    # its fold memo: the sim wave reads the legs the route wave drew.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plan = ExperimentPlan.grid(
        algorithms=["fft"], ns=[256], ps=[2, 4, 8, 16, 32, 64],
        topologies=["ring", "hypercube"],
        policies=["dimension-order", CountingValiant(0)],
        modes=["analytic", "sim"],
    )
    repro.clear_caches()
    CountingValiant.calls.clear()
    plan.run(executor="serial")
    assert len(CountingValiant.calls) == 6
    assert sum(CountingValiant.calls.values()) == 6
    assert repro.cache_stats()["fold"]["evictions"] == 0


@pytest.fixture
def trace(rng):
    return random_trace(64, 12, rng)


def test_policies_get_distinct_frozen_legs(trace):
    topo = by_name("torus2d", 16)
    policies = (ValiantPolicy(0), ValiantPolicy(1), DimensionOrderPolicy())
    folded = fold_trace(trace, 16)
    drawn = []
    for policy in policies:
        got, legs = fold_legs(trace, topo, policy)
        assert got is folded
        want = policy.phase_legs(
            topo, folded.labels, folded.offsets, folded.src, folded.dst
        )
        assert len(legs) == len(want)
        for (a, b), (c, d) in zip(legs, want):
            assert np.array_equal(a, c) and np.array_equal(b, d)
            assert not a.flags.writeable and not b.flags.writeable
        # Memoised: any topology with the same p gets the same objects.
        assert fold_legs(trace, by_name("ring", 16), policy)[1] is legs
        drawn.append(legs)
    (v0, v1, direct) = drawn
    assert not np.array_equal(v0[0][1], v1[0][1])
    assert len(direct) == 1 and len(v0) == 2
    assert fold_legs(trace, by_name("ring", 8), policies[0])[1] is not v0


def test_clone_over_same_arrays_draws_its_own_legs(trace):
    topo = by_name("hypercube", 16)
    policy = ValiantPolicy(3)
    clone = Trace(trace.v, trace.labels, trace.offsets, trace.src, trace.dst)
    folded, legs = fold_legs(trace, topo, policy)
    clone_folded, clone_legs = fold_legs(clone, topo, policy)
    assert clone_folded is not folded and clone_legs is not legs
    for (a, b), (c, d) in zip(legs, clone_legs):
        assert np.array_equal(a, c) and np.array_equal(b, d)
    routed = route_trace(trace, topo, policy)
    assert routed.num_supersteps == folded.num_supersteps
    assert route_trace(clone, topo, policy) is not routed
    assert np.array_equal(routed.time, route_trace(clone, topo, policy).time)
