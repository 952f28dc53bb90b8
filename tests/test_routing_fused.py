"""Property tests: ``route_trace`` is bit-identical to a per-superstep,
per-message oracle on every topology, under every policy — across
superstep-block boundaries and on large batches — and every topology's
``route_loads_multi`` kernel honours its per-segment contract."""

import numpy as np
import pytest

import repro.networks.routing as routing
from conftest import oracle_legs, random_trace
from repro.machine.folding import fold_trace
from repro.machine.program import ScheduleBuilder
from repro.networks import by_name, by_policy, route_trace
from repro.networks.policy import RoutingPolicy
from repro.networks.topology import TOPOLOGIES, Topology

TOPOLOGY_NAMES = tuple(TOPOLOGIES)
POLICY_NAMES = ("dimension-order", "valiant")


def oracle_profile(trace, topo, policy, steps=None):
    """Per-superstep (congestion, dilation, time) from ``oracle_legs``
    and the per-message ``route_loads_reference`` router (only the
    supersteps in ``steps``, when given; the others stay zero)."""
    folded = fold_trace(trace, topo.p)
    caps = topo.edge_capacities()
    S = folded.num_supersteps
    congestion = np.zeros(S)
    dilation = np.zeros(S, dtype=np.int64)
    for s in range(S) if steps is None else steps:
        label, step_src, step_dst = folded.superstep(s)
        if step_src.size == 0:
            continue
        c, d = 0.0, 0
        for src, dst in oracle_legs(policy, topo, s, label, step_src, step_dst):
            loads, dil = topo.route_loads_reference(src, dst)
            c += float((loads / caps).max())
            d += dil
        congestion[s], dilation[s] = c, d
    return congestion, dilation, congestion + dilation + 1.0


def assert_matches_oracle(profile, oracle, steps=slice(None)):
    names = ("congestion", "dilation", "time")
    got = (profile.congestion, profile.dilation, profile.time)
    for name, a, b in zip(names, got, oracle):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a[steps], b[steps]), name


def batch_trace(batch):
    """Two global supersteps of ``batch`` random cross messages on M(16)."""
    rng = np.random.default_rng(batch)
    builder = ScheduleBuilder(16)
    for _ in range(2):
        src = rng.integers(0, 16, batch)
        builder.superstep(0, src, (src + 1 + rng.integers(0, 15, batch)) % 16)
    return builder.build()


@pytest.fixture(scope="module")
def traces():
    from repro.api import run

    return {
        "matmul": run("matmul", n=64, seed=0).trace,
        "fft": run("fft", n=256, seed=1).trace,
        "prefix": run("prefix", n=64, seed=2).trace,
        "broadcast": run("broadcast", n=64, seed=3).trace,
    }


@pytest.fixture(autouse=True)
def cold_routes():
    routing.ROUTE_CACHE.clear()
    yield
    routing.ROUTE_CACHE.clear()


@pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@pytest.mark.parametrize("p", [4, 16])
def test_route_trace_matches_oracle(traces, topo_name, policy_name, p):
    topo = by_name(topo_name, p)
    policy = by_policy(policy_name, seed=5)
    for name, trace in traces.items():
        profile = route_trace(trace, topo, policy)
        assert_matches_oracle(profile, oracle_profile(trace, topo, policy))


@pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_large_batches_match_oracle(topo_name, policy_name):
    """Average batches above 1,024 messages route like any other."""
    trace = batch_trace(1025)
    topo = by_name(topo_name, 16)
    policy = by_policy(policy_name, seed=3)
    profile = route_trace(trace, topo, policy)
    assert_matches_oracle(profile, oracle_profile(trace, topo, policy))


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_trace_above_block_ceiling_matches_oracle(policy_name):
    """Butterfly p=256 (4,096 edges) over 640 supersteps is 2.6M cells:
    two superstep blocks, split after superstep 511."""
    trace = random_trace(256, 640, np.random.default_rng(7), max_messages=12)
    topo = by_name("butterfly", 256)
    policy = by_policy(policy_name, seed=9)
    S = fold_trace(trace, 256).num_supersteps
    rows = routing._BLOCK_CELLS // topo.num_edges()
    assert S * topo.num_edges() > routing._BLOCK_CELLS and rows == 512 < S
    profile = route_trace(trace, topo, policy)
    oracle = oracle_profile(trace, topo, policy)
    assert_matches_oracle(profile, oracle, slice(rows - 2, rows + 2))
    assert profile.congestion[rows - 1] > 0 and profile.congestion[rows] > 0
    assert_matches_oracle(profile, oracle)


@pytest.mark.parametrize("topo_name", ["hypercube", "butterfly"])
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_algorithm_trace_across_block_boundaries(topo_name, policy_name):
    """stencil2d n=16 (3,111 supersteps, 849,864 messages) at p=256 is
    cut into blocks by its message count; the supersteps on both sides
    of every boundary match the oracle."""
    from repro.api import run

    trace = run("stencil2d", n=16).trace
    topo = by_name(topo_name, 256)
    policy = by_policy(policy_name, seed=8)
    offsets = fold_trace(trace, 256).offsets
    assert offsets.size - 1 > 600 and offsets[-1] > 20 * routing._BLOCK_MESSAGES
    rows = routing._BLOCK_CELLS // topo.num_edges()
    bounds, first = [], 0
    while first < offsets.size - 1:
        budget = offsets[first] + routing._BLOCK_MESSAGES
        fits = int(np.searchsorted(offsets, budget, "right")) - 1
        first = min(offsets.size - 1, first + rows, max(first + 1, fits))
        bounds.append(first)
    assert len(bounds) > 20
    steps = sorted({s for b in bounds[:-1] for s in (b - 1, b)})
    profile = route_trace(trace, topo, policy)
    oracle = oracle_profile(trace, topo, policy, steps)
    assert_matches_oracle(profile, oracle, steps)


@pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_block_size_never_changes_the_profile(
    monkeypatch, traces, topo_name, policy_name
):
    """Blocks cut by cells (one, three or all supersteps) or by messages
    (one superstep each, or a few dozen messages) give the same arrays."""
    topo = by_name(topo_name, 16)
    policy = by_policy(policy_name, seed=4)
    limits = [(1, 1 << 15), (3, 1 << 15), (1 << 10, 1), (1 << 10, 40)]
    for trace in (traces["prefix"], traces["fft"]):
        oracle = oracle_profile(trace, topo, policy)
        for supersteps, messages in limits:
            cells = supersteps * topo.num_edges()
            monkeypatch.setattr(routing, "_BLOCK_CELLS", cells)
            monkeypatch.setattr(routing, "_BLOCK_MESSAGES", messages)
            routing.ROUTE_CACHE.clear()
            assert_matches_oracle(route_trace(trace, topo, policy), oracle)


@pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("p", [4, 16])
def test_route_loads_multi_rows_match_reference(topo_name, p):
    """Row s of the kernel == the per-message oracle on segment s alone,
    with self-messages and empty segments (first, inner and last)."""
    rng = np.random.default_rng(11 + p)
    segs = 7
    seg = np.sort(rng.choice([1, 2, 4, 5], 300))
    src = rng.integers(0, p, seg.size)
    dst = rng.integers(0, p, seg.size)
    dst[::5] = src[::5]  # self-messages charge nothing
    topo = by_name(topo_name, p)
    loads, dil = topo.route_loads_multi(src, dst, seg, segs)
    assert loads.shape == (segs, topo.num_edges()) and loads.dtype == np.float64
    assert dil.shape == (segs,) and dil.dtype == np.int64
    for s in range(segs):
        mask = seg == s
        ref_loads, ref_dil = topo.route_loads_reference(src[mask], dst[mask])
        assert np.array_equal(loads[s], ref_loads), s
        assert dil[s] == ref_dil, s
    assert not loads[[0, 3, 6]].any() and not dil[[0, 3, 6]].any()


@pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
def test_route_loads_multi_of_nothing_is_zero(topo_name):
    topo = by_name(topo_name, 16)
    none = np.empty(0, dtype=np.int64)
    loads, dil = topo.route_loads_multi(none, none, none, 3)
    assert loads.shape == (3, topo.num_edges()) and not loads.any()
    assert dil.tolist() == [0, 0, 0]
    idx = np.arange(16, dtype=np.int64)
    loads, dil = topo.route_loads_multi(idx, idx, idx // 8, 2)
    assert not loads.any() and dil.tolist() == [0, 0]


class Star(Topology):
    """Hub-and-spoke: every message crosses its src spoke, then its dst
    spoke (edge i is node i's spoke)."""

    def __init__(self, p):
        super().__init__(p)
        self.name = "star"

    def num_edges(self):
        return self.p

    def route_loads_reference(self, src, dst):
        cross = src != dst
        loads = np.bincount(src[cross], minlength=self.p) + np.bincount(
            dst[cross], minlength=self.p
        )
        return loads.astype(np.float64), 2 if cross.any() else 0


class FusedStar(Star):
    def route_loads_multi(self, src, dst, seg, num_segs):
        cross = src != dst
        base = seg[cross] * self.p
        keys = np.concatenate([base + src[cross], base + dst[cross]])
        loads = np.bincount(keys, minlength=num_segs * self.p)
        dil = 2 * np.bincount(seg[cross], minlength=num_segs).clip(max=1)
        return loads.reshape(num_segs, self.p).astype(np.float64), dil


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_topology_with_only_the_multi_kernel_routes(traces, policy_name):
    """A custom topology needs nothing but ``route_loads_multi``."""
    topo = FusedStar(16)
    policy = by_policy(policy_name, seed=2)
    trace = traces["prefix"]
    profile = route_trace(trace, topo, policy)
    assert_matches_oracle(profile, oracle_profile(trace, topo, policy))
    assert profile.max_dilation >= 2


def test_topology_without_the_multi_kernel_raises(traces):
    with pytest.raises(NotImplementedError, match="route_loads_multi"):
        route_trace(traces["prefix"], Star(16))


class BarePolicy(RoutingPolicy):
    """A policy that overrides nothing but its name."""

    name = "bare"


def test_policy_without_phase_legs_raises(traces):
    with pytest.raises(NotImplementedError, match="BarePolicy .*phase_legs"):
        route_trace(traces["prefix"], by_name("ring", 16), BarePolicy())
