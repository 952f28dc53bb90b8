"""The stage graph every plan runs through (``repro.exec.dag``).

The contract under test: both executor substrates, with and without the
result store, reproduces the per-cell oracle (``conftest.oracle_rows``)
bit for bit on random small plans, while executing each unique
emit/fold/route/sim stage once — the dedup counters recorded in frame
metadata and aggregated under ``repro.cache_stats()["dag"]`` pin that
down.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import oracle_rows
from repro import cache_stats, clear_caches
from repro.api import ExperimentPlan, run
from repro.exec import (
    ResultStore,
    ShmSubstrate,
    shutdown_pool,
)
from repro.networks import TOPOLOGIES
from repro.sim import ARBITERS


@pytest.fixture(autouse=True)
def _pin_executor(monkeypatch):
    # The session-level REPRO_EXECUTOR of a CI matrix leg must not leak
    # into tests that pick their substrate explicitly.
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)


def _shared_grid(name="dag-grid"):
    """A grid whose cells share most stage work: one emitted source,
    routes shared across modes, sims shared across nothing else."""
    return ExperimentPlan.grid(
        algorithms=["fft"],
        ns=[64],
        ps=[4, 8],
        topologies=["ring", "hypercube"],
        policies=["dimension-order", "valiant"],
        modes=["analytic", "sim"],
        name=name,
    )


def _subset(items):
    return st.lists(st.sampled_from(sorted(items)), min_size=1, unique=True)


@st.composite
def small_plans(draw):
    """1-2 sources from fft/prefix/broadcast/stencil1d at n <= 256 on a
    random sub-grid of p, topology, policy, mode, arbiter and flits."""
    # Sizes are capped where the cycle simulator gets expensive: fft at
    # 64, stencil1d (~27 supersteps per element) at 16 — still past the
    # sim-fusion gate, so the unfused sim path is drawn too.
    source = st.one_of(
        st.tuples(
            st.sampled_from(["prefix", "broadcast"]), st.sampled_from([16, 64, 256])
        ),
        st.tuples(st.just("fft"), st.sampled_from([16, 64])),
        st.just(("stencil1d", 16)),
    )
    sources = draw(st.lists(source, min_size=1, max_size=2, unique=True))
    grid = dict(
        ps=draw(_subset([4, 8])),
        topologies=draw(_subset(TOPOLOGIES)),
        policies=draw(_subset(["dimension-order", "valiant"])),
        modes=draw(_subset(["analytic", "sim"])),
        arbiter=draw(st.sampled_from(sorted(ARBITERS))),
        flits_per_message=draw(st.sampled_from([1, 2])),
    )
    cells = []
    for algorithm, n in sources:
        cells.extend(ExperimentPlan.grid([algorithm], ns=[n], **grid).cells)
    return ExperimentPlan(cells, name="random")


# ----------------------------------------------------------------------
# Bit-identity: the core property
# ----------------------------------------------------------------------
class TestOracleEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=small_plans())
    def test_random_plans_match_the_oracle(self, plan):
        oracle = oracle_rows(plan)
        for executor in ("serial", ShmSubstrate(workers=2, force=True)):
            frame = plan.run(executor=executor)
            name = frame.metadata["executor"]
            assert frame.rows == oracle, name
            assert frame.metadata["executor_effective"] == name
            with tempfile.TemporaryDirectory() as tmp:
                store = ResultStore(Path(tmp) / "results.db")
                cold = plan.run(executor=executor, store=store)
                warm = plan.run(executor=executor, store=store)
                store.close()
            assert cold.rows == oracle, name
            assert warm.rows == oracle, name
            assert warm.metadata["store_hits"] == len(plan)

    @pytest.mark.parametrize(
        "plan",
        [
            _shared_grid(),
            ExperimentPlan.grid(
                ["fft"],
                ns=[64],
                ps=[4, 8],
                topologies=["ring", "mesh2d"],
                modes=["sim"],
                arbiter="random",
                arbiter_seed=3,
                flits_per_message=2,
            ),
        ],
        ids=["shared-stages", "random-arbiter-flits"],
    )
    def test_pool_substrate_matches_the_oracle_on_sim_grids(self, plan, tmp_path):
        # Fixed sim grids pin the shm shard paths on sim-heavy work.
        oracle = oracle_rows(plan)
        executor = ShmSubstrate(workers=2, force=True)
        try:
            frame = plan.run(executor=executor)
            cold = plan.run(executor=executor, store=tmp_path / "results.db")
        finally:
            shutdown_pool()
        assert frame.rows == oracle
        assert frame.metadata["executor_effective"] == "shm"
        assert cold.rows == oracle
        assert cold.metadata["executor_effective"] == "shm"
        assert cold.metadata["store_misses"] == len(plan)

    def test_long_supersteps_fuse_like_short_ones(self, tmp_path):
        # stencil1d at n=256 has hundreds of supersteps: its sibling sims
        # still join one fused cycle loop, in-line and in the shm pool.
        plan = ExperimentPlan.grid(
            ["stencil1d"], ns=[256], ps=[4, 8], topologies=["ring"], modes=["sim"]
        )
        oracle = oracle_rows(plan)
        executor = ShmSubstrate(workers=2, force=True)
        try:
            frame = plan.run(executor=executor, store=tmp_path / "results.db")
            shm = plan.run(executor=executor)
        finally:
            shutdown_pool()
        assert frame.rows == oracle
        assert frame.metadata["executor_effective"] == "shm"
        assert shm.rows == oracle
        assert shm.metadata["executor_effective"] == "shm"

    def test_scheduler_accepts_only_dag(self):
        plan = ExperimentPlan.grid(["fft"], ns=[64], ps=[4])
        assert plan.run(scheduler="dag").rows == oracle_rows(plan)
        for bad in ("cells", "waves", None):
            with pytest.raises(ValueError, match="unknown scheduler"):
                plan.run(scheduler=bad)


# ----------------------------------------------------------------------
# Each unique node once, however small the LRUs
# ----------------------------------------------------------------------
class TestEachNodeOnce:
    """A plan larger than the route and sim LRUs still computes each
    unique node exactly once: the run keeps the profiles its waves
    return instead of re-reading (and, after eviction, recomputing)
    them through the LRUs."""

    @pytest.mark.parametrize("executor", ["serial", "shm"])
    def test_plans_beyond_lru_capacity(self, executor, monkeypatch):
        from repro.api.plan import _PlanRuntime
        from repro.exec import StageGraph
        from repro.networks.routing import ROUTE_CACHE
        from repro.sim.engine import SIM_CACHE

        # The sanitizer's spot checks re-route fresh trace clones.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plan = ExperimentPlan.grid(
            ["fft", "prefix"], ns=[64], ps=[4, 8],
            topologies=["ring", "hypercube", "torus2d"],
            policies=["dimension-order", "valiant"],
            modes=["analytic", "sim"],
        )
        oracle = oracle_rows(plan)
        runtime = _PlanRuntime(plan)
        runtime.prepare()
        counters = StageGraph(runtime, range(len(plan))).counters
        routes, sims = counters["route_nodes"], counters["sim_nodes"]
        monkeypatch.setattr(ROUTE_CACHE, "maxsize", 4)
        monkeypatch.setattr(SIM_CACHE, "maxsize", 4)
        assert routes == sims == 24
        substrate = (
            "serial" if executor == "serial" else ShmSubstrate(workers=2, force=True)
        )
        clear_caches()
        try:
            frame = plan.run(executor=substrate)
        finally:
            shutdown_pool()
        assert frame.rows == oracle
        assert frame.metadata["executor_effective"] == executor
        stats = cache_stats()
        assert stats["route"]["evictions"] > 0 and stats["sim"]["evictions"] > 0
        assert (stats["route"]["misses"], stats["route"]["hits"]) == (routes, 0)
        assert (stats["sim"]["misses"], stats["sim"]["hits"]) == (sims, 0)
        assert frame.metadata["dag_stages_executed"] == 2 + routes + sims


# ----------------------------------------------------------------------
# Dedup accounting
# ----------------------------------------------------------------------
class TestDedupCounters:
    def test_frame_metadata_records_counters(self):
        clear_caches()
        plan = _shared_grid()
        frame = plan.run()
        meta = frame.metadata
        planned = meta["dag_stages_planned"]
        unique = meta["dag_stages_unique"]
        assert planned > unique > 0
        assert meta["dag_stages_executed"] > 0
        assert meta["dag_stages_cache_hit"] >= 0
        assert meta["shared_stage_ratio"] == round(1 - unique / planned, 4)
        # Every cell references emit+fold+route+(sim|metrics) stages.
        assert planned == 4 * len(plan)

    def test_shared_source_emitted_once(self):
        # Every cell of the grid shares one emitted trace: the graph
        # plans len(plan) emit references but a single emit node.
        from repro.api.plan import _PlanRuntime
        from repro.exec import StageGraph

        plan = _shared_grid()
        runtime = _PlanRuntime(plan, check=False)
        indices = list(range(len(plan)))
        runtime.prepare(indices)
        graph = StageGraph(runtime, indices)
        assert graph.counters["emit_nodes"] == 1
        assert graph.counters["sim_nodes"] == 8  # 2 ps x 2 topos x 2 pols
        assert graph.counters["route_nodes"] == 8  # shared across modes
        assert graph.counters["fold_nodes"] == 2  # one per p

    def test_warm_lrus_are_counted_not_recomputed(self):
        # A stable in-memory trace keeps its LRU identity across runs:
        # the second run must count cache hits instead of executing.
        trace = run("fft", n=64).trace
        plan = ExperimentPlan.from_trace(
            trace,
            ps=[4, 8],
            topologies=["ring", "hypercube"],
            modes=["analytic", "sim"],
        )
        clear_caches()
        cold = plan.run()
        warm = plan.run()
        assert warm.rows == cold.rows
        assert warm.metadata["dag_stages_cache_hit"] > 0
        assert (
            warm.metadata["dag_stages_executed"]
            < cold.metadata["dag_stages_executed"]
        )

    def test_cache_stats_gains_dag_provider(self):
        clear_caches()
        assert cache_stats()["dag"]["stages_planned"] == 0
        frame = _shared_grid().run()
        stats = cache_stats()["dag"]
        assert stats["stages_planned"] == frame.metadata["dag_stages_planned"]
        assert stats["stages_unique"] == frame.metadata["dag_stages_unique"]
        assert stats["runs"] == 1
        clear_caches()
        assert cache_stats()["dag"]["stages_planned"] == 0
