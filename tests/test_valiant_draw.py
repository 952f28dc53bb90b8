"""``ValiantPolicy`` draws every intermediate of a trace in one pass, and
each one equals the counter-based hash that ``intermediates_reference``
computes message by message in Python ints, through ``phase_legs`` and
``intermediates`` alike."""

import numpy as np
import pytest

from repro.api import ExperimentPlan, run
from repro.machine.folding import fold_trace
from repro.networks import by_name
from repro.networks.policy import ValiantPolicy

SEEDS = (0, 1, 2**32 + 5, 2**64 + 3)

#: Every (algorithm, n) source of the route-sweep and sim-grid benchmark
#: workloads, each folded to every p they use.
WORKLOAD_SOURCES = (
    ("stencil2d", 4), ("sort", 128), ("fft", 256), ("stencil1d", 16),
    ("fft", 64), ("prefix", 128), ("broadcast", 256), ("matmul", 16),
)
WORKLOAD_PS = (8, 16)


def assert_pinned(policy, topo, labels, offsets, src, dst):
    """``phase_legs`` and ``intermediates`` against the oracle, message
    for message."""
    bounds = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    want = [
        policy.intermediates_reference(topo, s, int(labels[s]), src[lo:hi])
        for s, (lo, hi) in enumerate(bounds)
    ]
    mid = np.concatenate(want) if want else src[:0]
    (a_src, a_dst), (b_src, b_dst) = policy.phase_legs(
        topo, labels, offsets, src, dst
    )
    assert np.array_equal(a_src, src) and np.array_equal(b_dst, dst)
    assert np.array_equal(a_dst, mid) and np.array_equal(b_src, mid)
    for s, (lo, hi) in enumerate(bounds):
        label = int(labels[s])
        got = policy.intermediates(topo, s, label, src[lo:hi])
        assert np.array_equal(got, want[s]), s


def columns(p, counts, labels, seed=0):
    rng = np.random.default_rng(seed)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    src = rng.integers(0, p, int(offsets[-1]))
    dst = rng.integers(0, p, int(offsets[-1]))
    return np.asarray(labels, dtype=np.int64), offsets, src, dst


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_shapes_match_the_oracle(seed):
    """Empty supersteps, odd and even counts, shift 0 (label log2 p and
    past it) and shift log2 p (label 0), and one superstep of more than
    2**15 messages."""
    policy = ValiantPolicy(seed)
    topo = by_name("hypercube", 16)
    counts = [0, 1, 2, 3, 4, 0, 5, 7, 2**15 + 3, 6, 1, 0]
    labels = [0, 0, 1, 4, 2, 3, 4, 5, 0, 3, 1, 2]
    assert_pinned(policy, topo, *columns(16, counts, labels, seed=seed % 97))


@pytest.mark.parametrize("seed", SEEDS)
def test_a_one_processor_machine_draws_nothing(seed):
    policy = ValiantPolicy(seed)
    labels, offsets, src, dst = columns(1, [3, 0, 2], [0, 0, 0])
    assert_pinned(policy, by_name("ring", 1), labels, offsets, src, dst)
    assert np.array_equal(policy.phase_legs(
        by_name("ring", 1), labels, offsets, src, dst)[0][1], src)


def test_a_trace_with_no_messages():
    policy = ValiantPolicy(3)
    assert_pinned(policy, by_name("ring", 8), *columns(8, [0, 0], [0, 1]))
    assert_pinned(policy, by_name("ring", 8), *columns(8, [], []))


@pytest.mark.parametrize("seed", SEEDS)
def test_ordinals_past_two_to_the_32(seed):
    """Ordinals from 2**32 on hash like the oracle's: the superstep's
    key ``step * gamma`` wraps modulo 2**64 in both."""
    policy = ValiantPolicy(seed)
    topo = by_name("ring", 64)
    src = np.random.default_rng(seed % 89).integers(0, 64, 9)
    for step in (2**32 - 1, 2**32, 2**40 + 17):
        assert np.array_equal(
            policy.intermediates(topo, step, 1, src),
            policy.intermediates_reference(topo, step, 1, src),
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algorithm,n", WORKLOAD_SOURCES)
def test_workload_traces_match_the_oracle(algorithm, n, seed):
    trace = run(algorithm, n=n, seed=1).trace
    policy = ValiantPolicy(seed)
    for p in WORKLOAD_PS:
        folded = fold_trace(trace, p)
        assert_pinned(
            policy, by_name("hypercube", p),
            folded.labels, folded.offsets, folded.src, folded.dst,
        )


def test_negative_superstep_ordinal_is_rejected():
    with pytest.raises(ValueError, match="-2"):
        ValiantPolicy(0).intermediates(by_name("ring", 8), -2, 0, np.arange(3))


def test_negative_policy_seed_is_rejected_with_the_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        ValiantPolicy(-1)
    plan = ExperimentPlan.grid(
        algorithms=["fft"], ns=[64], ps=[8], topologies=["ring"],
        policies=["valiant"], policy_seed=-1,
    )
    with pytest.raises(ValueError, match="got -1"):
        plan.run()
