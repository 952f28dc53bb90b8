"""Fast-engine contract tests: bit-identity with the reference loop,
cross-cell batching, the quiescent/drain skip, kernel-path parity, the
engine selector, and the multi-flit fidelity knob."""

import numpy as np
import pytest

from repro.api import run
from repro.networks import by_name, by_policy
from repro.networks.topology import TOPOLOGIES
from repro.sim import (
    ENGINES,
    clear_sim_cache,
    reset_sim_engine_stats,
    sim_engine_stats,
    simulate_many,
    simulate_trace,
    validate_grid,
)

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
        every (topology, policy, arbiter, flits) cell — the property the
        engine selector relies on to call the two paths interchangeable."""
        topo = by_name(topo_name, 16)
        policy = by_policy(policy_name, seed=7)
        for name, trace in engine_traces.items():
            clear_sim_cache()
            ref = simulate_trace(
                trace, topo, policy, arbiter_name,
                flits_per_message=flits, engine="reference",
            )
            clear_sim_cache()
            fast = simulate_trace(
                trace, topo, policy, arbiter_name,
                flits_per_message=flits, engine="fast",
            )
            _assert_profiles_identical(
                ref, fast, (name, topo_name, policy_name, arbiter_name, flits)
            )


# ----------------------------------------------------------------------
# Cross-cell batching (simulate_many / validate_grid)
# ----------------------------------------------------------------------
class TestBatchedSimulation:
    def test_batch_matches_per_cell_simulation(self, engine_traces):
        items = []
        for topo_name in ("ring", "torus2d", "fat-tree"):
            topo = by_name(topo_name, 16)
            for policy_name in POLICY_NAMES:
                for trace in engine_traces.values():
                    items.append((trace, topo, by_policy(policy_name, 7), "fifo"))
        clear_sim_cache()
        batched = simulate_many(items)
        for (trace, topo, policy, arb), prof in zip(items, batched):
            clear_sim_cache()
            single = simulate_trace(trace, topo, policy, arb, engine="fast")
            _assert_profiles_identical(single, prof, (topo.name, policy.name))

    def test_batch_seeds_the_profile_cache(self, engine_traces):
        topo = by_name("hypercube", 16)
        items = [
            (engine_traces["fft"], topo, by_policy("valiant", 7), "fifo"),
            (engine_traces["sort"], topo, by_policy("valiant", 7), "fifo"),
        ]
        clear_sim_cache()
        first = simulate_many(items)
        again = simulate_many(items)
        for a, b in zip(first, again):
            assert a is b  # second sweep is pure LRU hits

    def test_validate_grid_matches_validate_bound(self, engine_traces):
        from repro.sim import validate_bound

        cells = [
            (engine_traces["fft"], by_name("mesh2d", 16), by_policy("valiant", 7)),
            (engine_traces["sort"], by_name("butterfly", 16), None),
        ]
        clear_sim_cache()
        reports = validate_grid(cells)
        for (trace, topo, policy), rep in zip(cells, reports):
            clear_sim_cache()
            solo = validate_bound(trace, topo, policy)
            assert np.array_equal(
                rep.profile.cycles, solo.profile.cycles
            ) and rep.max_ratio == solo.max_ratio

    def test_batch_fuses_into_one_run(self, engine_traces):
        items = [
            (engine_traces["fft"], by_name("ring", 16), by_policy("valiant", 7), "fifo"),
            (engine_traces["sort"], by_name("mesh2d", 16), by_policy("valiant", 7), "fifo"),
        ]
        clear_sim_cache()
        reset_sim_engine_stats()
        simulate_many(items)
        assert sim_engine_stats()["fused_runs"] == 1


# ----------------------------------------------------------------------
# The event-driven skip (regression: it must actually fire)
# ----------------------------------------------------------------------
class TestQuiescentSkip:
    def test_skip_counter_fires_on_uncongested_trace(self, engine_traces):
        """An uncongested cell spends most cycles below the service
        floor; the fast engine must skip those windows, not walk them."""
        topo = by_name("hypercube", 32)  # plenty of bandwidth for n=32
        clear_sim_cache()
        reset_sim_engine_stats()
        simulate_trace(engine_traces["fft"], topo, engine="fast")
        stats = sim_engine_stats()
        assert stats["skips"] > 0
        assert stats["skipped_cycles"] > 0
        # The skip must net real cycles: the serve loop alone would have
        # walked every one of them.
        assert stats["skipped_cycles"] >= stats["skips"]

    def test_reference_engine_never_touches_fast_counters(self, engine_traces):
        clear_sim_cache()
        reset_sim_engine_stats()
        simulate_trace(engine_traces["fft"], by_name("ring", 16), engine="reference")
        assert sim_engine_stats()["fused_runs"] == 0


# ----------------------------------------------------------------------
# Engine selection + flits validation
# ----------------------------------------------------------------------
class TestEngineSelector:
    def test_engine_names(self):
        assert ENGINES == ("fast", "reference")

    def test_unknown_engine_rejected(self, engine_traces):
        with pytest.raises(ValueError, match="unknown sim engine"):
            simulate_trace(
                engine_traces["fft"], by_name("ring", 16), engine="warp"
            )

    def test_env_var_sets_default(self, engine_traces, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "bogus")
        clear_sim_cache()
        with pytest.raises(ValueError, match="unknown sim engine"):
            simulate_trace(engine_traces["fft"], by_name("ring", 16))
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        clear_sim_cache()
        reset_sim_engine_stats()
        simulate_trace(engine_traces["fft"], by_name("ring", 16))
        assert sim_engine_stats()["fused_runs"] == 0  # env picked reference

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
            clear_sim_cache()
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
        clear_sim_cache()
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
