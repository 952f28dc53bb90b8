"""Tests for the cycle-accurate simulator: hop paths, the event loop's
congestion+dilation bracket, arbitration invariance, memoisation, and
the pipeline/plan/CLI integration."""

import numpy as np
import pytest

from conftest import make_trace, oracle_rows, route_loads
from repro.api import ExperimentPlan, run
from repro.exec import ShmSubstrate, shutdown_pool
from repro.networks import by_name, by_policy
from repro.networks.topology import TOPOLOGIES
from repro.sim import ARBITERS, by_arbiter, simulate_trace, validate_grid
from repro.sim.engine import SIM_CACHE

TOPOLOGY_NAMES = tuple(TOPOLOGIES)
POLICY_NAMES = ("dimension-order", "valiant")


# ----------------------------------------------------------------------
# Topology.route_paths
# ----------------------------------------------------------------------
class TestRoutePaths:
    @pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_paths_agree_with_loads_and_distances(self, topo_name, p):
        """bincount(path edges) == the kernel's loads (self-messages
        included); lengths == pair_distance."""
        rng = np.random.default_rng(hash((topo_name, p)) % 2**32)
        topo = by_name(topo_name, p)
        for _ in range(5):
            m = int(rng.integers(1, 300))
            src = rng.integers(0, p, m)
            dst = rng.integers(0, p, m)
            offsets, edges = topo.route_paths(src, dst)
            assert np.array_equal(np.diff(offsets), topo.pair_distance(src, dst))
            loads, _ = route_loads(topo, src, dst)
            assert np.array_equal(
                np.bincount(edges, minlength=topo.num_edges()).astype(float),
                loads,
            )

    @pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
    def test_empty_and_self_messages(self, topo_name):
        topo = by_name(topo_name, 8)
        offsets, edges = topo.route_paths(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert offsets.tolist() == [0] and edges.size == 0
        offsets, edges = topo.route_paths(np.array([3, 3]), np.array([3, 3]))
        assert np.array_equal(offsets, [0, 0, 0]) and edges.size == 0


# ----------------------------------------------------------------------
# Event-loop micro-behaviour (exact, hand-checkable cases)
# ----------------------------------------------------------------------
def _one_superstep(topo, src, dst) -> tuple[int, int, int]:
    """Measured (cycles, max queue, delivered) of a one-superstep trace."""
    profile = simulate_trace(make_trace(topo.p, (0, src, dst)), topo)
    return (
        int(profile.cycles[0]),
        int(profile.max_queue[0]),
        int(profile.delivered[0]),
    )


class TestSuperstepSim:
    def test_serialised_flits_on_one_edge(self):
        """k flits over one unit-capacity edge need exactly k cycles."""
        topo = by_name("ring", 8)
        for k in (1, 2, 5):
            src = np.zeros(k, dtype=np.int64)
            dst = np.ones(k, dtype=np.int64)
            assert _one_superstep(topo, src, dst) == (k, k, k)

    def test_uncontended_path_costs_its_length(self):
        topo = by_name("ring", 16)
        assert _one_superstep(topo, np.array([0]), np.array([5])) == (5, 1, 1)

    def test_empty_superstep_is_free(self):
        topo = by_name("ring", 8)
        assert _one_superstep(topo, np.array([2]), np.array([2])) == (0, 0, 0)

    def test_pipelining_beats_serial_hops(self):
        """A convoy down a shared line pipelines: D + (k-1), not k*D."""
        topo = by_name("ring", 16)
        k, d = 4, 6
        src = np.zeros(k, dtype=np.int64)
        dst = np.full(k, d, dtype=np.int64)
        cycles, _, _ = _one_superstep(topo, src, dst)
        assert cycles == d + (k - 1)


# ----------------------------------------------------------------------
# The congestion+dilation bracket (the tentpole invariant)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sim_traces():
    return {
        "fft": run("fft", n=64, seed=1).trace,
        "sort": run("sort", n=64, seed=2).trace,
        "prefix": run("prefix", n=64, seed=3).trace,
    }


class TestBoundInvariants:
    @pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_cycles_bracketed_by_congestion_and_dilation(
        self, sim_traces, topo_name, policy_name
    ):
        """max(C, D) <= measured <= (C+1)*D per superstep, every cell.

        The lower bound is bandwidth/latency conservation; the upper is
        the per-hop wait bound (a flit waits at most the bottleneck's
        full service time at each hop) — together they bracket the LMR
        O(C+D) schedule, implying measured <= C*D whenever C, D >= 2.
        """
        topo = by_name(topo_name, 8)
        policy = by_policy(policy_name, seed=7)
        for name, trace in sim_traces.items():
            profile = simulate_trace(trace, topo, policy)
            C, D = profile.congestion, profile.dilation
            busy = profile.delivered > 0
            lower = np.maximum(C, D)[busy]
            upper = ((C + 1.0) * D)[busy]
            cycles = profile.cycles[busy]
            assert (cycles >= lower - 1e-9).all(), (name, topo_name, policy_name)
            assert (cycles <= upper + 1e-9).all(), (name, topo_name, policy_name)
            assert (profile.cycles[~busy] == 0).all()

    @pytest.mark.parametrize("arbiter_name", tuple(ARBITERS))
    def test_bracket_holds_under_every_arbiter(self, sim_traces, arbiter_name):
        topo = by_name("torus2d", 16)
        profile = simulate_trace(
            sim_traces["sort"], topo, arbiter=by_arbiter(arbiter_name, 5)
        )
        busy = profile.delivered > 0
        C, D = profile.congestion[busy], profile.dilation[busy]
        cycles = profile.cycles[busy]
        assert (cycles >= np.maximum(C, D) - 1e-9).all()
        assert (cycles <= (C + 1.0) * D + 1e-9).all()

    def test_edge_flit_totals_match_routed_loads(self, sim_traces):
        """Total flits per edge == summed analytic loads (paths fix it)."""
        topo = by_name("hypercube", 8)
        trace = sim_traces["fft"]
        profile = simulate_trace(trace, topo)
        from repro.machine.folding import fold_trace

        folded = fold_trace(trace, 8)
        expected = np.zeros(topo.num_edges())
        for s in range(folded.num_supersteps):
            _, src, dst = folded.superstep(s)
            loads, _ = route_loads(topo, src, dst)
            expected += loads
        assert np.array_equal(profile.edge_flits.astype(float), expected)
        assert profile.total_messages == folded.total_messages

    def test_validate_bound_report(self, sim_traces):
        cell = (sim_traces["fft"], by_name("butterfly", 8), None)
        (report,) = validate_grid([cell])
        assert report.ok and report.max_ratio <= report.threshold
        assert report.optimistic_supersteps().size == 0
        busy = report.profile.delivered > 0
        assert np.isnan(report.ratios[~busy]).all()
        assert report.worst_superstep is not None
        summary = report.summary()
        assert summary["topology"] == "butterfly" and summary["ok"]


# ----------------------------------------------------------------------
# Arbitration only reorders: delivery is invariant
# ----------------------------------------------------------------------
class TestArbitrationInvariance:
    def test_random_seeds_never_change_delivered_sets(self, sim_traces):
        topo = by_name("mesh2d", 16)
        trace = sim_traces["sort"]
        base = simulate_trace(trace, topo, arbiter=by_arbiter("random", 0))
        for seed in (1, 17):
            other = simulate_trace(trace, topo, arbiter=by_arbiter("random", seed))
            assert np.array_equal(base.delivered, other.delivered)
            assert np.array_equal(base.edge_flits, other.edge_flits)

    def test_all_arbiters_deliver_the_same_messages(self, sim_traces):
        topo = by_name("fat-tree", 8)
        trace = sim_traces["fft"]
        profiles = [
            simulate_trace(trace, topo, arbiter=by_arbiter(name, 3))
            for name in ARBITERS
        ]
        for other in profiles[1:]:
            assert np.array_equal(profiles[0].delivered, other.delivered)
            assert np.array_equal(profiles[0].edge_flits, other.edge_flits)


# ----------------------------------------------------------------------
# Memoisation + stats
# ----------------------------------------------------------------------
class TestSimCache:
    def test_profile_memoised_per_cell(self, sim_traces):
        SIM_CACHE.clear()
        trace = sim_traces["prefix"]
        topo = by_name("ring", 8)
        first = simulate_trace(trace, topo)
        assert simulate_trace(trace, topo) is first
        stats = SIM_CACHE.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # A different arbiter is a different cell.
        simulate_trace(trace, topo, arbiter="farthest-to-go")
        assert SIM_CACHE.stats()["misses"] == 2
        for arr in (first.cycles, first.max_queue, first.edge_flits):
            assert not arr.flags.writeable
        SIM_CACHE.clear()

    def test_sim_cache_reports_evictions(self, sim_traces, monkeypatch):
        SIM_CACHE.clear()
        monkeypatch.setattr(SIM_CACHE, "maxsize", 2)
        trace = sim_traces["prefix"]
        for name in ("ring", "mesh2d", "hypercube"):
            simulate_trace(trace, by_name(name, 8))
        stats = SIM_CACHE.stats()
        assert stats["evictions"] == 1 and stats["misses"] == 3
        SIM_CACHE.clear()


# ----------------------------------------------------------------------
# Pipeline / plan / CLI integration
# ----------------------------------------------------------------------
class TestSimPipeline:
    def test_simulate_stage_metrics(self):
        pipe = run("matmul", n=64, seed=3).fold(16).route("torus2d")
        row = pipe.simulate("fifo").metrics()
        profile = simulate_trace(pipe.trace, by_name("torus2d", 16))
        assert row.sim_cycles == profile.total_cycles
        denom = float(profile.congestion.sum() + profile.dilation.sum())
        assert row.sim_over_cd == pytest.approx(profile.total_cycles / denom)
        assert row.arbiter == "fifo"
        assert pipe.simulate("fifo").sim_profile.p == 16

    def test_simulate_requires_route_stage(self):
        pipe = run("fft", n=64).simulate()
        with pytest.raises(AttributeError, match="route"):
            pipe.sim_profile

    def test_sim_stage_rides_the_lru(self):
        pipe = run("fft", n=64, seed=9).route("hypercube", p=8)
        sim1 = pipe.simulate().sim_profile
        before = SIM_CACHE.stats()
        sim2 = pipe.simulate().sim_profile  # fresh stage, same cell
        after = SIM_CACHE.stats()
        assert sim2 is sim1
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]


class TestSimPlan:
    def test_grid_mode_sim_rows_match_direct_simulation(self):
        plan = ExperimentPlan.grid(
            algorithms=["fft"],
            ns=[64],
            ps=[8],
            topologies=["ring", "hypercube"],
            policies=["dimension-order"],
            modes=["analytic", "sim"],
        )
        frame = plan.run()
        rows = frame.as_dicts()
        assert [r["mode"] for r in rows] == ["analytic", "sim"] * 2
        trace = run("fft", n=64).trace
        for r in rows:
            if r["mode"] != "sim":
                assert r["sim_cycles"] is None
                continue
            profile = simulate_trace(trace, by_name(r["topology"], 8))
            assert r["sim_cycles"] == profile.total_cycles
            assert r["arbiter"] == "fifo"
            # Sim rows keep the analytic columns next to the measured
            # ones — that is the analytic-vs-measured sweep contract.
            assert r["routed_time"] is not None and r["sim_cycles"] > 0
        # Aggregate measured constant stays within the acceptance band.
        sims = [r for r in rows if r["mode"] == "sim"]
        assert all(0.25 <= r["sim_over_cd"] <= 4.0 for r in sims)

    def test_sim_cells_serialise_and_executors_agree(self, tmp_path):
        plan = ExperimentPlan.grid(
            algorithms=["prefix"],
            ns=[64],
            ps=[8],
            topologies=["torus2d"],
            policies=["dimension-order", "valiant"],
            modes=["sim"],
            arbiter="random",
            arbiter_seed=4,
        )
        path = tmp_path / "plan.json"
        plan.to_json(path)
        loaded = ExperimentPlan.from_json(path)
        assert loaded.cells == plan.cells
        oracle = oracle_rows(plan)
        serial = plan.run(executor="serial")
        try:
            shm = plan.run(executor=ShmSubstrate(workers=2, force=True))
        finally:
            shutdown_pool()
        assert serial.rows == oracle
        assert shm.rows == oracle

    def test_unknown_mode_and_arbiter_fail_fast(self):
        from repro.api import PlanCell

        bad_mode = ExperimentPlan(
            [PlanCell(algorithm="fft", n=64, topology="ring", mode="nope")]
        )
        with pytest.raises(ValueError, match="mode"):
            bad_mode.run()
        bad_arb = ExperimentPlan(
            [
                PlanCell(
                    algorithm="fft", n=64, topology="ring",
                    mode="sim", arbiter="nope",
                )
            ]
        )
        with pytest.raises(KeyError, match="arbiter"):
            bad_arb.run()

    def test_negative_random_arbiter_seed_is_rejected_with_the_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            by_arbiter("random", -1)
        plan = ExperimentPlan.grid(
            ["fft"], ns=[64], ps=[8], topologies=["ring"], modes=["sim"],
            arbiter="random", arbiter_seed=-1,
        )
        with pytest.raises(ValueError, match="got -1"):
            plan.run()

    def test_sim_mode_without_topology_fails_fast(self):
        """Asking for a simulation of a structural cell is a mistake,
        not a silent no-op row."""
        from repro.api import PlanCell

        plan = ExperimentPlan([PlanCell(algorithm="fft", n=64, p=8, mode="sim")])
        with pytest.raises(ValueError, match="topology"):
            plan.run()


class TestPlanCheck:
    def test_check_runs_numpy_oracles(self):
        plan = ExperimentPlan.grid(
            algorithms=["matmul", "sort", "prefix"], ns=[64], sigmas=[0.0]
        )
        frame = plan.run(check=True)
        assert all(v is True for v in frame.column("correct"))

    def test_check_defaults_off_and_none_without_adapt(self):
        plan = ExperimentPlan.grid(algorithms=["fft"], ns=[64], sigmas=[0.0])
        assert plan.run().column("correct") == [None]
        # fft's adapt oracle runs only when asked.
        assert plan.run(check=True).column("correct") == [True]
        # matmul-space's structural+numeric oracle also runs only when
        # asked; unchecked runs still report None, not a false pass.
        plain = ExperimentPlan.grid(
            algorithms=["matmul-space"], ns=[64], sigmas=[0.0]
        )
        assert plain.run().column("correct") == [None]
        assert plain.run(check=True).column("correct") == [True]

    def test_check_covers_new_oracles(self):
        """Every Section-4 algorithm and BSP baseline verifies against
        its numpy reference through one check=True sweep."""
        plan = ExperimentPlan.grid(
            algorithms=["fft", "broadcast", "stencil1d", "stencil2d"],
            ns=[16], sigmas=[0.0],
        )
        assert plan.run(check=True).column("correct") == [True] * 4

    def test_check_covers_baseline_oracles(self):
        from repro.api import PlanCell

        cells = [
            PlanCell(algorithm="bsp-matmul-2d", n=256, p=4, sigma=0.0),
            PlanCell(algorithm="bsp-matmul-3d", n=256, p=8, sigma=0.0),
            PlanCell(algorithm="bsp-fft", n=1024, p=16, sigma=0.0),
            PlanCell(algorithm="bsp-sort", n=256, p=8, sigma=0.0),
            PlanCell(algorithm="bsp-broadcast", n=64, sigma=0.0),
        ]
        frame = ExperimentPlan(cells).run(check=True)
        assert frame.column("correct") == [True] * len(cells)

    def test_check_flags_a_broken_algorithm(self):
        from repro.api import AlgorithmSpec, register, unregister

        def emit(n, rng):
            result = run("prefix", n=n).result
            result.expected = result.output + 1.0  # sabotage the reference
            return result

        register(
            AlgorithmSpec(
                name="_broken",
                summary="deliberately wrong",
                kind="oblivious",
                section="test",
                emit=emit,
                check=lambda n: None,
                adapt=lambda r: {
                    "correct": bool(np.allclose(r.output, r.expected))
                },
                default_sizes=(64,),
            )
        )
        try:
            frame = ExperimentPlan.grid(
                algorithms=["_broken"], ns=[64], sigmas=[0.0]
            ).run(check=True)
            assert frame.column("correct") == [False]
        finally:
            unregister("_broken")


class TestSimCLI:
    def test_cli_sim_verb(self, capsys):
        from repro.__main__ import main

        code = main([
            "sim", "fft", "--n", "64", "--p", "8",
            "--topologies", "ring,hypercube", "--policies", "dimension-order",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst constant" in out and "hypercube" in out

    def test_cli_sim_runs_baselines(self, capsys):
        from repro.__main__ import main

        code = main([
            "sim", "bsp-fft", "--n", "256", "--p", "4",
            "--topologies", "torus2d", "--policies", "dimension-order",
        ])
        assert code == 0
        assert "torus2d" in capsys.readouterr().out
        # A baseline without --p is a usage error, not a traceback.
        assert main(["sim", "bsp-fft", "--n", "256"]) == 2
        assert "required" in capsys.readouterr().out
