"""Tests for the network substrate: topologies, policies, routing, D-BSP fitting.

The columnar routing engine's contract mirrors the folding kernels':
every vectorised router is property-tested **bit-identical** to its
retained per-message ``route_loads_reference`` oracle on random endpoint
batches, and the routing invariants (load conservation, dilation =
longest path, free self-messages, barrier-only empty supersteps) hold
for every topology including the new ``torus2d``/``butterfly``.
"""

import numpy as np
import pytest

from repro.core.metrics import TraceMetrics
from repro.machine.program import ScheduleBuilder
from repro.machine.trace import Trace
from repro.networks import (
    TOPOLOGIES,
    Butterfly,
    DimensionOrderPolicy,
    FatTree,
    Hypercube,
    Mesh2D,
    Ring,
    Torus2D,
    ValiantPolicy,
    by_name,
    by_policy,
    fit,
    route_trace,
)
from repro.util.intmath import ilog2

from conftest import make_trace, oracle_legs, random_trace, route_loads

ALL = list(TOPOLOGIES)


def superstep_cost(topo, src, dst, label=0):
    """(congestion, dilation, time) of one superstep: ``route_trace`` on
    a one-superstep trace over ``topo.p`` processors."""
    profile = route_trace(make_trace(topo.p, (label, src, dst)), topo)
    return profile.congestion[0], profile.dilation[0], profile.time[0]


def random_endpoints(p, rng, n=None):
    n = int(rng.integers(1, 200)) if n is None else n
    return rng.integers(0, p, size=n), rng.integers(0, p, size=n)


class TestTopologies:
    @pytest.mark.parametrize("name", ALL)
    def test_construct(self, name):
        topo = by_name(name, 16)
        assert topo.p == 16

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            by_name("torus9", 16)

    @pytest.mark.parametrize("name", ALL)
    def test_empty_routing(self, name):
        topo = by_name(name, 16)
        congestion, _, _ = superstep_cost(
            topo, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert congestion == 0.0

    @pytest.mark.parametrize("name", ALL)
    def test_self_messages_free(self, name):
        topo = by_name(name, 16)
        idx = np.arange(16, dtype=np.int64)
        congestion, _, time = superstep_cost(topo, idx, idx)
        assert congestion == 0.0
        assert time == 1.0  # barrier only

    def test_ring_dilation(self):
        topo = Ring(16)
        _, dilation, _ = superstep_cost(topo, np.array([0]), np.array([8]))
        assert dilation == 8
        _, dilation, _ = superstep_cost(topo, np.array([0]), np.array([15]))
        assert dilation == 1  # wraps the short way

    def test_hypercube_dilation_is_hamming(self):
        topo = Hypercube(16)
        _, dilation, _ = superstep_cost(topo, np.array([0]), np.array([15]))
        assert dilation == 4

    def test_mesh_dilation_is_manhattan(self):
        topo = Mesh2D(16)
        # Morton 0 = (0,0), Morton 15 = (3,3).
        _, dilation, _ = superstep_cost(topo, np.array([0]), np.array([15]))
        assert dilation == 6

    def test_torus_wraps_both_axes(self):
        topo = Torus2D(16)
        # Morton 0 = (0,0), Morton 15 = (3,3): one wrap hop per axis.
        _, dilation, _ = superstep_cost(topo, np.array([0]), np.array([15]))
        assert dilation == 2

    def test_torus_never_longer_than_mesh(self, rng):
        src, dst = random_endpoints(64, rng, n=300)
        torus, mesh = Torus2D(64), Mesh2D(64)
        assert (torus.pair_distance(src, dst) <= mesh.pair_distance(src, dst)).all()

    def test_fat_tree_dilation_height(self):
        topo = FatTree(16)
        _, dilation, _ = superstep_cost(topo, np.array([0]), np.array([15]))
        assert dilation == 8  # up 4 + down 4

    def test_butterfly_dilation_is_msb(self):
        topo = Butterfly(16)
        _, dilation, _ = superstep_cost(topo, np.array([0]), np.array([15]))
        assert dilation == 4  # highest differing bit index + 1
        _, dilation, _ = superstep_cost(topo, np.array([0]), np.array([1]))
        assert dilation == 1

    @pytest.mark.parametrize("name", ALL)
    def test_congestion_counts_bottleneck(self, name):
        topo = by_name(name, 8)
        # All-to-one: the edge into node 0 is a bottleneck everywhere.
        src = np.arange(1, 8, dtype=np.int64)
        dst = np.zeros(7, dtype=np.int64)
        congestion, _, _ = superstep_cost(topo, src, dst)
        assert congestion >= 2.0

    @pytest.mark.parametrize("name", ALL)
    def test_edge_capacities_cached_and_frozen(self, name):
        topo = by_name(name, 32)
        caps = topo.edge_capacities()
        assert topo.edge_capacities() is caps
        assert not caps.flags.writeable
        assert caps.shape == (topo.num_edges(),)
        assert (caps >= 1.0).all()

    def test_fat_tree_capacities_match_heap_depths(self):
        topo = FatTree(16)
        caps = topo.edge_capacities()
        # Edge above node 1 (depth 1, roots 8 leaves): capacity sqrt(8).
        assert caps[0] == pytest.approx(8**0.5)
        # Leaf edges (depth log p, one leaf below): capacity 1.
        assert (caps[-16:] == 1.0).all()


class TestVectorizedRouters:
    """The vectorised kernels against the per-message reference oracles."""

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("p", [8, 64])
    def test_bit_identical_on_random_batches(self, name, p, rng):
        topo = by_name(name, p)
        for _ in range(8):
            src, dst = random_endpoints(p, rng)
            loads, dil = route_loads(topo, src, dst)
            ref_loads, ref_dil = topo.route_loads_reference(src, dst)
            assert np.array_equal(loads, ref_loads)
            assert dil == ref_dil

    @pytest.mark.parametrize("name", ALL)
    def test_load_conservation(self, name, rng):
        """Total load equals the sum of routed path lengths."""
        topo = by_name(name, 32)
        for _ in range(5):
            src, dst = random_endpoints(32, rng)
            loads, dil = route_loads(topo, src, dst)
            dist = topo.pair_distance(src, dst)
            assert loads.sum() == dist.sum()
            assert dil == int(dist.max(initial=0))

    @pytest.mark.parametrize("name", ALL)
    def test_adversarial_batches(self, name):
        """Degenerate patterns: all-self, single pair, antipodal blast."""
        p = 16
        topo = by_name(name, p)
        idx = np.arange(p, dtype=np.int64)
        for src, dst in [
            (idx, idx),
            (np.array([3]), np.array([12])),
            (idx, idx[::-1].copy()),
            (idx, (idx + p // 2) % p),
        ]:
            loads, dil = route_loads(topo, src, dst)
            ref_loads, ref_dil = topo.route_loads_reference(src, dst)
            assert np.array_equal(loads, ref_loads)
            assert dil == ref_dil


class TestDBSPFit:
    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("p", [8, 64])
    def test_fitted_machine_admissible(self, name, p):
        fit(by_name(name, p)).validate()

    def test_ring_g_linear(self):
        m = fit(Ring(64))
        assert m.g[0] / m.g[3] == pytest.approx(8.0)

    def test_hypercube_g_constant(self):
        m = fit(Hypercube(64))
        assert max(m.g) == pytest.approx(min(m.g))

    def test_mesh_g_sqrt(self):
        m = fit(Mesh2D(256))
        assert m.g[0] / m.g[2] == pytest.approx(2.0)

    @pytest.mark.parametrize("name", ALL)
    def test_cluster_geometry_consistent(self, name):
        """Diameters shrink and bisections stay positive level by level."""
        topo = by_name(name, 64)
        logp = ilog2(topo.p)
        diams = [topo.diameter_of_cluster(i) for i in range(logp)]
        bisecs = [topo.bisection_of_cluster(i) for i in range(logp)]
        assert all(d >= 1 for d in diams)
        assert all(a >= b for a, b in zip(diams, diams[1:]))
        assert all(b > 0 for b in bisecs)

    def test_torus_diameter_half_of_mesh(self):
        # Full torus: wraparound halves each axis' worst case.
        assert Torus2D(64).diameter_of_cluster(0) == 8
        assert Mesh2D(64).diameter_of_cluster(0) == 14


class TestPolicies:
    def test_by_policy_registry(self):
        assert by_policy("dimension-order").name == "dimension-order"
        assert by_policy("valiant", 7).cache_key() == ("valiant", 7)
        with pytest.raises(KeyError):
            by_policy("hot-potato")

    def test_valiant_reproducible(self, rng):
        topo = Hypercube(16)
        src = rng.integers(0, 16, size=50)
        a = ValiantPolicy(seed=5).intermediates(topo, 3, 1, src)
        b = ValiantPolicy(seed=5).intermediates(topo, 3, 1, src)
        c = ValiantPolicy(seed=6).intermediates(topo, 3, 1, src)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_valiant_respects_clusters(self, rng):
        """Intermediates stay in the source's i-cluster, so legs stay legal."""
        p, label = 64, 2
        topo = Hypercube(p)
        shift = ilog2(p) - label
        src = rng.integers(0, p, size=200)
        mid = ValiantPolicy(seed=0).intermediates(topo, 0, label, src)
        assert np.array_equal(src >> shift, mid >> shift)

    def test_valiant_two_phases_cover_endpoints(self, rng):
        topo = Ring(16)
        src = rng.integers(0, 16, size=40)
        dst = rng.integers(0, 16, size=40)
        policy = ValiantPolicy(0)
        phases = policy.phase_legs(topo, np.array([0]), np.array([0, 40]), src, dst)
        want = oracle_legs(policy, topo, 0, 0, src, dst)
        assert len(phases) == len(want) == 2
        (s1, d1), (s2, d2) = phases
        assert np.array_equal(s1, src)
        assert np.array_equal(d1, s2)
        assert np.array_equal(d2, dst)
        assert np.array_equal(d1, want[0][1])

    def test_dimension_order_single_phase(self, rng):
        topo = Ring(16)
        src, dst = random_endpoints(16, rng)
        offsets = np.array([0, src.size])
        phases = DimensionOrderPolicy().phase_legs(
            topo, np.array([0]), offsets, src, dst
        )
        assert len(phases) == 1
        assert phases[0][0] is src and phases[0][1] is dst


class TestRouteTrace:
    @pytest.mark.parametrize("name", ALL)
    def test_profile_matches_per_superstep_costs(self, name, rng):
        """The columnar pass equals superstep-by-superstep routing."""
        from repro.machine.folding import fold_trace

        t = random_trace(64, 8, rng, max_messages=64)
        topo = by_name(name, 16)
        profile = route_trace(t, topo)
        folded = fold_trace(t, 16)
        assert profile.num_supersteps == folded.num_supersteps
        costs = []
        for s in range(folded.num_supersteps):
            label, src, dst = folded.superstep(s)
            costs.append(superstep_cost(topo, src, dst, label))
        for s, (congestion, dilation, time) in enumerate(costs):
            assert profile.congestion[s] == congestion
            assert profile.dilation[s] == dilation
            assert profile.time[s] == time
        assert profile.total_time == pytest.approx(sum(c[2] for c in costs))

    def test_empty_supersteps_cost_one_barrier(self):
        t = make_trace(16, (0, [], []), (0, [0], [8]), (1, [], []))
        profile = route_trace(t, Ring(16))
        assert profile.num_supersteps == 3
        assert profile.time[0] == 1.0
        assert profile.time[2] == 1.0
        assert profile.time[1] > 1.0

    def test_profile_memoised(self, rng):
        t = random_trace(32, 5, rng)
        topo = Ring(8)
        assert route_trace(t, topo) is route_trace(t, topo)
        # Different policy, different entry.
        v = route_trace(t, topo, ValiantPolicy(1))
        assert v is not route_trace(t, topo)
        assert v is route_trace(t, topo, ValiantPolicy(1))
        # A clone over the same arrays is a distinct cache entry.
        clone = Trace(t.v, t.labels, t.offsets, t.src, t.dst)
        assert route_trace(clone, topo) is not route_trace(t, topo)

    def test_profile_arrays_read_only(self, rng):
        t = random_trace(32, 5, rng)
        profile = route_trace(t, Hypercube(8))
        with pytest.raises(ValueError):
            profile.time[0] = 99.0

    def test_valiant_costs_more_but_bounded(self, rng):
        t = random_trace(64, 10, rng, max_messages=128)
        for name in ALL:
            topo = by_name(name, 16)
            direct = route_trace(t, topo).total_time
            valiant = route_trace(t, topo, ValiantPolicy(0)).total_time
            assert direct <= valiant <= 10 * direct


class TestSimulation:
    @pytest.mark.parametrize("name", ALL)
    def test_dbsp_predicts_routed_time(self, name, rng):
        """E11: routed-vs-predicted ratio within a modest constant."""
        t = random_trace(64, 10, rng, max_messages=128)
        topo = by_name(name, 16)
        routed = route_trace(t, topo).total_time
        assert 0.05 <= routed / TraceMetrics(t).D_machine(fit(topo)) <= 20.0

    def test_routed_time_additive_over_supersteps(self, rng):
        topo = Ring(8)
        t1 = random_trace(8, 1, rng)
        once = ScheduleBuilder(8)
        once.superstep(*t1.superstep(0))
        twice = ScheduleBuilder(8)
        twice.extend(once)
        twice.extend(once)
        t2 = twice.build()
        assert route_trace(t2, topo).total_time == pytest.approx(
            2 * route_trace(t1, topo).total_time
        )

    def test_hypercube_beats_ring_on_global_pattern(self, rng):
        src = np.arange(16, dtype=np.int64)
        t = make_trace(16, (0, src, (src + 8) % 16))
        assert (
            route_trace(t, Hypercube(16)).total_time
            < route_trace(t, Ring(16)).total_time
        )

    def test_torus_beats_mesh_on_wrap_pattern(self):
        src = np.arange(16, dtype=np.int64)
        t = make_trace(16, (0, src, (src + 8) % 16))
        assert (
            route_trace(t, Torus2D(16)).total_time
            <= route_trace(t, Mesh2D(16)).total_time
        )

    def test_comparison_carries_policy(self, rng):
        t = random_trace(32, 4, rng)
        assert route_trace(t, Ring(8), ValiantPolicy(2)).policy == "valiant"


class TestNetworkSweep:
    def test_grid_shape_and_values(self, rng):
        from repro.api import ExperimentPlan

        t = random_trace(64, 6, rng, max_messages=32)
        frame = ExperimentPlan.from_trace(
            t,
            ps=[8, 16],
            topologies=("ring", "torus2d"),
            policies=("dimension-order", "valiant"),
        ).run()
        cells = list(zip(frame.column("p"), frame.column("topology"),
                         frame.column("policy")))
        assert cells == [
            (p, topo, pol)
            for p in (8, 16)
            for topo in ("ring", "torus2d")
            for pol in ("dimension-order", "valiant")
        ]
        assert all(np.isfinite(x) and x > 0 for x in frame.column("routed_time"))

    def test_relative_mode_is_e11_band(self, rng):
        from repro.api import ExperimentPlan

        t = random_trace(64, 10, rng, max_messages=64)
        frame = ExperimentPlan.from_trace(
            t,
            ps=[16],
            topologies=("ring", "mesh2d", "torus2d", "hypercube", "fat-tree",
                        "butterfly"),
            relative_to_dbsp=True,
        ).run()
        table = frame.pivot("p", "topology", "routed_over_dbsp")
        assert len(table.columns) == 6
        assert all(0.05 <= x <= 20.0 for x in table.rows[0])
