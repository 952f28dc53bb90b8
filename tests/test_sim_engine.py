"""Fast-engine contract tests: bit-identity with the reference oracle
(``simulate_trace_reference``), cross-cell batching, per-flit pure
arbiter ranks, flits validation, and the multi-flit fidelity knob."""

import numpy as np
import pytest

from repro import cache_stats, clear_caches
from repro.api import run
from repro.machine.folding import fold_trace
from repro.machine.program import ScheduleBuilder
from repro.machine.trace import Trace
from repro.networks import by_name, by_policy
from repro.networks.routing import fold_legs, route_trace
from repro.networks.topology import TOPOLOGIES, Ring
from repro.sim import (
    Arbiter,
    RandomArbiter,
    by_arbiter,
    simulate_many,
    simulate_trace,
    simulate_trace_reference,
    validate_grid,
)
from repro.sim.engine import SIM_CACHE, compute_sims

TOPOLOGY_NAMES = tuple(TOPOLOGIES)
POLICY_NAMES = ("dimension-order", "valiant")
ARBITER_NAMES = ("fifo", "farthest-to-go", "random")


@pytest.fixture(scope="module")
def engine_traces():
    return {
        "fft": run("fft", n=32, seed=1).trace,
        "sort": run("sort", n=32, seed=2).trace,
    }


def _assert_profiles_identical(ref, fast, ctx):
    assert np.array_equal(ref.cycles, fast.cycles), ctx
    assert np.array_equal(ref.max_queue, fast.max_queue), ctx
    assert np.array_equal(ref.delivered, fast.delivered), ctx
    assert np.array_equal(ref.edge_flits, fast.edge_flits), ctx


# ----------------------------------------------------------------------
# The tentpole contract: fast == reference, bit for bit
# ----------------------------------------------------------------------
class TestFastReferenceIdentity:
    @pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    @pytest.mark.parametrize("arbiter_name", ARBITER_NAMES)
    @pytest.mark.parametrize("flits", (1, 3))
    def test_fast_engine_is_bit_identical(
        self, engine_traces, topo_name, policy_name, arbiter_name, flits
    ):
        """cycles, max_queue, delivered and edge_flits agree exactly on
        every (topology, policy, arbiter, flits) cell — the property that
        lets the fast engine be the only production path."""
        topo = by_name(topo_name, 16)
        policy = by_policy(policy_name, seed=7)
        for name, trace in engine_traces.items():
            ref = simulate_trace_reference(
                trace, topo, policy, arbiter_name, flits_per_message=flits
            )
            fast = simulate_trace(
                trace, topo, policy, arbiter_name, flits_per_message=flits
            )
            _assert_profiles_identical(
                ref, fast, (name, topo_name, policy_name, arbiter_name, flits)
            )

    @pytest.mark.parametrize("topo_name", ("ring", "fat-tree", "butterfly"))
    def test_third_party_arbiters_run_fused(self, engine_traces, topo_name):
        """An arbiter that only overrides ``priorities`` runs in the
        fused loop bit-identical to the reference — with int64 ranks
        that tie (a per-cycle farthest-to-go, which must also match the
        static one) and with float ranks."""

        class PerCycleFarthest(Arbiter):
            name = "per-cycle-farthest"

            def priorities(self, step, phase, cycle, index, remaining):
                return -np.asarray(remaining, dtype=np.int64)

        class Wavy(Arbiter):
            name = "wavy"

            def priorities(self, step, phase, cycle, index, remaining):
                return np.sin(7.3 * np.asarray(index) + 1.1 * np.asarray(cycle))

        topo = by_name(topo_name, 16)
        policy = by_policy("valiant", seed=7)
        trace = engine_traces["sort"]
        for arbiter in (PerCycleFarthest(), Wavy()):
            fast = simulate_trace(trace, topo, policy, arbiter)
            ref = simulate_trace_reference(trace, topo, policy, arbiter)
            _assert_profiles_identical(ref, fast, (topo_name, arbiter.name))
        _assert_profiles_identical(
            simulate_trace(trace, topo, policy, "farthest-to-go"),
            simulate_trace(trace, topo, policy, PerCycleFarthest()),
            topo_name,
        )


# ----------------------------------------------------------------------
# Random ranks: a per-flit pure counter-based hash
# ----------------------------------------------------------------------
class TestRandomRank:
    @pytest.mark.parametrize("seed", (0, 1, 12345))
    def test_rank_is_per_flit_pure(self, seed):
        """Ranking any subset of flits gives each flit the rank it gets
        in the call over the full set — what lets the fused loop rank
        many supersteps and cells in one call."""
        rng = np.random.default_rng(seed)
        n = 500
        step = rng.integers(0, 40, n)
        phase = rng.integers(0, 2, n)
        cycle = rng.integers(0, 300, n)
        index = rng.integers(0, 5000, n)
        remaining = rng.integers(1, 9, n)
        arbiter = RandomArbiter(seed)
        full = arbiter.priorities(step, phase, cycle, index, remaining)
        for _ in range(5):
            sub = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            part = arbiter.priorities(
                step[sub], phase[sub], cycle[sub], index[sub], remaining[sub]
            )
            assert np.array_equal(part, full[sub])
        # The reference's per-phase call: scalar counters, one phase.
        mask = (step == step[0]) & (phase == phase[0]) & (cycle == cycle[0])
        scalar = arbiter.priorities(
            int(step[0]), int(phase[0]), int(cycle[0]), index[mask], remaining[mask]
        )
        assert np.array_equal(scalar, full[mask])

    def test_seed_and_counters_change_ranks(self):
        index = np.arange(256)
        remaining = np.ones(256, dtype=np.int64)
        base = RandomArbiter(0).priorities(3, 0, 7, index, remaining)
        assert np.unique(base).size == index.size  # no ties within a phase
        for arbiter, args in (
            (RandomArbiter(1), (3, 0, 7)),
            (RandomArbiter(0), (4, 0, 7)),
            (RandomArbiter(0), (3, 1, 7)),
            (RandomArbiter(0), (3, 0, 8)),
        ):
            other = arbiter.priorities(*args, index, remaining)
            # An independent redraw: the winner order is reshuffled.
            assert not np.array_equal(np.argsort(other), np.argsort(base))
            assert np.mean(other < base) == pytest.approx(0.5, abs=0.15)

    def test_seeds_equal_modulo_two_to_the_64_rank_apart(self):
        """Every 64-bit word of the seed feeds the key, so seeds with the
        same low word rank differently; a seed below 2**64 keeps its
        splitmix64 key."""
        index = np.arange(256)
        remaining = np.ones(256, dtype=np.int64)
        assert RandomArbiter(3)._key == 487265508
        for big in (2**64 + 3, 2**128 + 3, 3 << 64 | 3):
            assert RandomArbiter(big)._key != RandomArbiter(3)._key
            assert not np.array_equal(
                RandomArbiter(big).priorities(3, 0, 7, index, remaining),
                RandomArbiter(3).priorities(3, 0, 7, index, remaining),
            )

    def test_random_profile_is_pinned(self):
        """Any change to the rank hash moves random-arbiter rows (and
        must be recorded as a migration): pin one small profile."""
        trace = run("fft", n=32).trace
        profile = simulate_trace_reference(trace, by_name("ring", 16), arbiter="random")
        assert profile.cycles.tolist() == [32, 8, 4, 4, 4, 9, 8, 33, 4, 4, 4, 27]
        assert profile.max_queue.tolist() == [8, 4, 4, 4, 4, 6, 4, 8, 4, 4, 4, 8]
        SIM_CACHE.clear()
        fast = simulate_trace(trace, by_name("ring", 16), arbiter="random")
        _assert_profiles_identical(profile, fast, "pinned")


# ----------------------------------------------------------------------
# Cross-cell batching (simulate_many / validate_grid)
# ----------------------------------------------------------------------
class _WideRing(Ring):
    """A ring of 1.5-flit links.  Every fat-tree leaf link has capacity
    1, so only a topology like this one leaves fractional credit on the
    processor-side link where one routing phase hands over to the next."""

    def __init__(self, p: int):
        super().__init__(p)
        self.name = "ring-1.5"

    def _compute_edge_capacities(self) -> np.ndarray:
        return np.full(self.num_edges(), 1.5)


class TestBatchedSimulation:
    @pytest.mark.parametrize("flits", (1, 3))
    def test_batch_matches_per_cell_simulation(self, engine_traces, flits):
        """One ``simulate_many`` batch against the per-cell reference
        oracle: fractional capacities (fat-tree, 1.5-flit ring) beside
        integer ones, valiant's two phases changing over on different
        cycles, both static arbiters, a trace above 64 supersteps, an
        edgeless p=1 cell and a dynamic-rank ``random`` cell."""
        traces = dict(engine_traces, stencil1d=run("stencil1d", n=16).trace)
        assert traces["stencil1d"].num_supersteps > 64
        items = [
            (trace, topo, by_policy(policy_name, 7), arb)
            for topo in (
                by_name("ring", 8), by_name("torus2d", 8),
                by_name("fat-tree", 8), _WideRing(8),
            )
            for policy_name in POLICY_NAMES
            for arb in ("fifo", "farthest-to-go")
            for trace in traces.values()
        ]
        items.append((traces["fft"], by_name("hypercube", 1), None, "fifo"))
        items.append((traces["sort"], by_name("fat-tree", 8), None, "random"))
        SIM_CACHE.clear()
        batched = simulate_many(items, flits_per_message=flits)
        for (trace, topo, policy, arb), prof in zip(items, batched):
            ref = simulate_trace_reference(
                trace, topo, policy, arb, flits_per_message=flits
            )
            _assert_profiles_identical(ref, prof, (topo.name, prof.policy, arb))

    def test_batch_seeds_the_profile_cache(self, engine_traces):
        topo = by_name("hypercube", 16)
        items = [
            (engine_traces["fft"], topo, by_policy("valiant", 7), "fifo"),
            (engine_traces["sort"], topo, by_policy("valiant", 7), "fifo"),
        ]
        SIM_CACHE.clear()
        first = simulate_many(items)
        again = simulate_many(items)
        for a, b in zip(first, again):
            assert a is b  # second sweep is pure LRU hits

    def test_validate_grid_matches_one_cell_grids(self, engine_traces):
        cells = [
            (engine_traces["fft"], by_name("mesh2d", 16), by_policy("valiant", 7)),
            (engine_traces["sort"], by_name("butterfly", 16), None),
        ]
        SIM_CACHE.clear()
        reports = validate_grid(cells)
        for (trace, topo, policy), rep in zip(cells, reports):
            SIM_CACHE.clear()
            (solo,) = validate_grid([(trace, topo, policy)])
            assert np.array_equal(
                rep.profile.cycles, solo.profile.cycles
            ) and rep.max_ratio == solo.max_ratio

    def test_batch_fuses_into_one_run(self, engine_traces):
        items = [
            (engine_traces["fft"], by_name("ring", 16), by_policy("valiant", 7), "fifo"),
            (engine_traces["sort"], by_name("mesh2d", 16), by_policy("valiant", 7), "fifo"),
        ]
        clear_caches()
        simulate_many(items)
        assert cache_stats()["sim_engine"]["fused_runs"] == 1


# ----------------------------------------------------------------------
# Barrier-only supersteps: numbered like the rest, zero in every column
# ----------------------------------------------------------------------
def _barrier_trace() -> Trace:
    """Seven supersteps on M(16): empty ones at the start, in the middle
    (one of them holding only self-messages, which the fold drops) and
    at the end, around three contended cluster-legal batches."""
    rng = np.random.default_rng(4)
    none = np.empty(0, dtype=np.int64)
    builder = ScheduleBuilder(16)
    batches = ((0, 0), (1, 0), (0, 64), (2, 0), (1, 48), (0, -3), (1, 40), (0, 0))
    for label, m in batches:
        if m < 0:  # self-messages only
            src = rng.integers(0, 16, -m)
            builder.superstep(label, src, src.copy())
            continue
        src = rng.integers(0, 16, m) if m else none
        shift = 4 - label
        dst = (src >> shift << shift) | rng.integers(0, 1 << shift, src.size)
        builder.superstep(label, src, dst)
    return builder.build()


class TestBarrierOnlySupersteps:
    @pytest.mark.parametrize("arbiter_name", ARBITER_NAMES)
    @pytest.mark.parametrize("flits", (1, 3))
    def test_empty_supersteps_report_zeros(self, arbiter_name, flits):
        """Both policies on three topologies in one fused batch equal the
        reference bit for bit, so every busy superstep keeps its true
        ordinal (the Valiant draw and the random rank both read it) and
        its own flit range."""
        trace = _barrier_trace()
        items = [
            (trace, by_name(topo_name, 16), by_policy(policy_name, 3), arbiter_name)
            for topo_name in ("ring", "fat-tree", "butterfly")
            for policy_name in POLICY_NAMES
        ]
        cross = [
            int(np.count_nonzero(src != dst))
            for _, src, dst in map(trace.superstep, range(trace.num_supersteps))
        ]
        empty, busy = [0, 1, 3, 5, 7], [2, 4, 6]
        assert min(cross[s] for s in busy) > 30
        SIM_CACHE.clear()
        batch = simulate_many(items, seed=9, flits_per_message=flits)
        for item, fast in zip(items, batch):
            ref = simulate_trace_reference(*item, seed=9, flits_per_message=flits)
            _assert_profiles_identical(ref, fast, item[1:])
            assert fast.delivered.tolist() == cross
            for col in (fast.cycles, fast.max_queue, fast.delivered):
                assert col[empty].tolist() == [0] * len(empty)
            assert (fast.cycles[busy] > 0).all()


# ----------------------------------------------------------------------
# Fused set-up: per-leg flit arrays in (superstep, phase) slot order
# ----------------------------------------------------------------------
def _pairs_trace() -> Trace:
    """Supersteps on M(16) around the set-up's edge cases: barrier-only
    ones (empty, self-messages only), single messages inside 2-clusters
    (a Valiant intermediate there is the source or the destination, so
    one of the two legs moves nothing) and contended batches."""
    rng = np.random.default_rng(11)
    builder = ScheduleBuilder(16)
    none = np.empty(0, dtype=np.int64)
    for label, m in ((0, 0), (3, 1), (1, 40), (3, 1), (2, -5), (3, 1),
                     (3, 1), (0, 56), (3, 1), (3, 1), (3, 0)):
        if m <= 0:
            src = rng.integers(0, 16, -m) if m else none
            builder.superstep(label, src, src.copy())
            continue
        src = rng.integers(0, 16, m)
        shift = 4 - label
        low = rng.integers(1 if label == 3 else 0, 1 << shift, m)
        dst = (src >> shift << shift) | (src + low) % (1 << shift)
        builder.superstep(label, src, dst)
    return builder.build()


class TestFusedSetUp:
    def test_mixed_batch_matches_reference(self):
        """One-leg and two-leg policies, 1 and 3 flits and all three
        arbiters in one batch: every cell equals the reference, so each
        flit lands in its (superstep, phase) slot whichever leg emits it
        and whichever legs move nothing."""
        trace = _pairs_trace()
        valiant = by_policy("valiant", 2)
        folded, (leg1, leg2) = fold_legs(trace, by_name("ring", 16), valiant)
        moved = [
            (np.count_nonzero(leg1[0][a:b] != leg1[1][a:b]),
             np.count_nonzero(leg2[0][a:b] != leg2[1][a:b]))
            for a, b in zip(folded.offsets[:-1], folded.offsets[1:])
        ]
        # A busy superstep whose first leg is all self-messages, and one
        # whose second leg is.
        assert (0, 1) in moved and (1, 0) in moved
        assert (0, 0) in moved  # barrier-only supersteps
        items = [
            (trace, by_name(topo_name, 16), policy, by_arbiter(arbiter, 4), flits)
            for topo_name in ("ring", "fat-tree", "butterfly")
            for policy in (by_policy("dimension-order"), valiant)
            for arbiter in ARBITER_NAMES
            for flits in (1, 3)
        ]
        clear_caches()
        batch = compute_sims(items, [route_trace(*item[:3]) for item in items])
        assert cache_stats()["sim_engine"]["fused_runs"] == 3  # one per arbiter group
        for (trace, topo, policy, arbiter, flits), fast in zip(items, batch):
            ref = simulate_trace_reference(
                trace, topo, policy, arbiter, flits_per_message=flits
            )
            _assert_profiles_identical(
                ref, fast, (topo.name, policy.name, arbiter.name, flits)
            )

    def test_zero_hop_path_is_rejected(self, engine_traces):
        """A topology that routes distinct processors over no edge breaks
        the slot numbering: the fast engine refuses it."""

        class HollowRing(Ring):
            def __init__(self, p):
                super().__init__(p)
                self.name = "hollow-ring"

            def route_paths(self, src, dst):
                return np.zeros(src.size + 1, dtype=np.int64), np.empty(
                    0, dtype=np.int64
                )

        SIM_CACHE.clear()
        with pytest.raises(ValueError, match="hollow-ring: zero-hop path"):
            simulate_trace(engine_traces["fft"], HollowRing(16))


# ----------------------------------------------------------------------
# Engine counters: one fused run per arbiter group
# ----------------------------------------------------------------------
class TestEngineCounters:
    def test_one_fused_run_per_arbiter_group(self, engine_traces):
        """fifo and farthest-to-go cells fuse per static rank mode, every
        other arbiter per cache key: four groups, four fused runs."""
        topo = by_name("mesh2d", 16)
        items = [
            (trace, topo, by_policy("valiant", 7), arbiter)
            for trace in engine_traces.values()
            for arbiter in (
                "fifo", "farthest-to-go", by_arbiter("random", 0),
                by_arbiter("random", 5),
            )
        ]
        clear_caches()
        simulate_many(items)
        stats = cache_stats()["sim_engine"]
        assert set(stats) == {"fused_runs", "serve_cycles"}
        assert stats["fused_runs"] == 4

    def test_large_group_runs_in_chunks(self, engine_traces):
        """A group holding more flits than FLIT_BUDGET runs in several
        fused loops, each closed before a cell would overflow it, and
        each cell as it runs alone."""
        from repro.sim.fastpath import FLIT_BUDGET

        ring = by_name("ring", 8)
        trace = engine_traces["sort"]
        # Each cell puts its crossing messages x 2 Valiant legs x 3
        # flits into a loop.
        per_cell = 2 * 3 * fold_trace(trace, ring.p).total_messages
        per_loop = FLIT_BUDGET // per_cell
        n_cells = per_loop + 2
        assert n_cells * per_cell > FLIT_BUDGET
        items = [
            (trace, ring, by_policy("valiant", seed), "fifo")
            for seed in range(n_cells)
        ]
        clear_caches()
        batch = simulate_many(items, flits_per_message=3)
        assert cache_stats()["sim_engine"]["fused_runs"] == -(-n_cells // per_loop) >= 2
        SIM_CACHE.clear()
        for item, profile in zip(items, batch):
            solo = simulate_trace(*item, flits_per_message=3)
            assert solo is not profile
            _assert_profiles_identical(solo, profile, item[2].seed)

    def test_many_small_cells_fuse_into_one_loop_per_group(self, engine_traces):
        """Sim-grid-sized cells (a few hundred flits each) all fit the
        budget: 96 cells over two arbiter groups run two fused loops."""
        from repro.sim.fastpath import FLIT_BUDGET

        trace = engine_traces["fft"]
        items = [
            (trace, by_name(topo_name, p), by_policy(policy_name, 1), arbiter)
            for arbiter in ("fifo", "random")
            for topo_name in TOPOLOGY_NAMES
            for p in (4, 8, 16, 32)
            for policy_name in POLICY_NAMES
        ]
        assert len(items) == 96
        group = 0  # flits of each arbiter group: messages x legs
        for _, topo, policy, _ in items[:48]:
            folded, legs = fold_legs(trace, topo, policy)
            group += folded.total_messages * len(legs)
        assert group < FLIT_BUDGET
        clear_caches()
        batch = simulate_many(items)
        assert cache_stats()["sim_engine"]["fused_runs"] == 2
        for item, profile in zip(items[::4], batch[::4]):
            _assert_profiles_identical(
                simulate_trace_reference(*item), profile, item[1:]
            )

    def test_reference_oracle_leaves_sim_counters_unchanged(self, engine_traces):
        topo = by_name("ring", 16)
        simulate_trace(engine_traces["fft"], topo)  # a warm entry to hit
        cache, engine = SIM_CACHE.stats(), cache_stats()["sim_engine"]
        ref = simulate_trace_reference(engine_traces["fft"], topo)
        assert SIM_CACHE.stats() == cache
        assert cache_stats()["sim_engine"] == engine
        assert ref is not simulate_trace(engine_traces["fft"], topo)


# ----------------------------------------------------------------------
# Flits validation
# ----------------------------------------------------------------------
class TestFlitsValidation:
    def test_flits_must_be_positive(self, engine_traces):
        with pytest.raises(ValueError, match="flits_per_message"):
            simulate_trace(
                engine_traces["fft"], by_name("ring", 16), flits_per_message=0
            )
        with pytest.raises(ValueError, match="flits_per_message"):
            run("fft", n=32).fold(p=16).route("ring").simulate(
                flits_per_message=0
            )
        from repro.api import ExperimentPlan, PlanCell

        plan = ExperimentPlan(
            [
                PlanCell(
                    algorithm="fft", n=32, p=16, topology="ring",
                    mode="sim", flits_per_message=0,
                )
            ]
        )
        with pytest.raises(ValueError, match="flits_per_message"):
            plan.run()

    def test_reference_oracle_rejects_nonpositive_flits(self, engine_traces):
        for flits in (0, -2):
            with pytest.raises(ValueError, match="flits_per_message"):
                simulate_trace_reference(
                    engine_traces["fft"], by_name("ring", 16),
                    flits_per_message=flits,
                )


# ----------------------------------------------------------------------
# One engine: no selector is left to pick the reference loop
# ----------------------------------------------------------------------
class TestSingleEngine:
    def test_engine_keyword_and_env_var_are_gone(
        self, engine_traces, monkeypatch
    ):
        topo = by_name("ring", 16)
        with pytest.raises(TypeError, match="engine"):
            simulate_trace(engine_traces["fft"], topo, engine="reference")
        # The old environment switch is ignored: the fast engine runs.
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        clear_caches()
        fast = simulate_trace(engine_traces["fft"], topo)
        assert cache_stats()["sim_engine"]["fused_runs"] > 0
        _assert_profiles_identical(
            simulate_trace_reference(engine_traces["fft"], topo), fast, "env"
        )


# ----------------------------------------------------------------------
# Multi-flit fidelity: the bracket generalises to F*C + D
# ----------------------------------------------------------------------
class TestMultiFlit:
    @pytest.mark.parametrize("flits", (2, 4))
    def test_bracket_scales_with_flits(self, engine_traces, flits):
        """max(F*C, D) <= measured <= (F*C+1)*D per busy superstep: the
        message-level congestion serialises F times while the dilation
        (hop count) is unchanged."""
        for topo_name in ("torus2d", "fat-tree"):
            topo = by_name(topo_name, 16)
            SIM_CACHE.clear()
            profile = simulate_trace(
                engine_traces["sort"], topo, flits_per_message=flits
            )
            busy = profile.delivered > 0
            C = flits * profile.congestion[busy]
            D = profile.dilation[busy]
            cycles = profile.cycles[busy]
            assert (cycles >= np.maximum(C, D) - 1e-9).all(), topo_name
            assert (cycles <= (C + 1.0) * D + 1e-9).all(), topo_name

    def test_flits_scale_edge_traffic_exactly(self, engine_traces):
        topo = by_name("mesh2d", 16)
        SIM_CACHE.clear()
        one = simulate_trace(engine_traces["fft"], topo)
        three = simulate_trace(engine_traces["fft"], topo, flits_per_message=3)
        assert np.array_equal(three.edge_flits, 3 * one.edge_flits)
        assert np.array_equal(three.delivered, one.delivered)
        assert three.flits_per_message == 3
        # Distinct LRU entries: the flit count is part of the key.
        assert one is not simulate_trace(
            engine_traces["fft"], topo, flits_per_message=3
        )

    def test_bound_ratios_price_flits(self, engine_traces):
        profile = simulate_trace(
            engine_traces["sort"], by_name("ring", 16), flits_per_message=2
        )
        busy = profile.delivered > 0
        denom = 2 * profile.congestion[busy] + profile.dilation[busy]
        expected = profile.cycles[busy] / denom
        assert np.allclose(profile.bound_ratios()[busy], expected)


# ----------------------------------------------------------------------
# Stored capacities (exact utilisation on the fat tree)
# ----------------------------------------------------------------------
class TestStoredCapacities:
    def test_profile_carries_topology_capacities(self, engine_traces):
        topo = by_name("fat-tree", 16)
        profile = simulate_trace(engine_traces["fft"], topo)
        assert profile.capacities is not None
        assert np.array_equal(profile.capacities, topo.edge_capacities())

    def test_edge_utilization_exact_by_default(self, engine_traces):
        topo = by_name("fat-tree", 16)
        profile = simulate_trace(engine_traces["fft"], topo)
        caps = topo.edge_capacities()
        total = max(int(profile.cycles.sum()), 1)
        assert np.allclose(
            profile.edge_utilization(), profile.edge_flits / (caps * total)
        )
