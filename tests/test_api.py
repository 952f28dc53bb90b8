"""Tests for the unified experiment API: registry, pipeline, plan, CLI."""

import json
from dataclasses import replace

import numpy as np
import pytest

import repro
import repro.api as api
from conftest import oracle_rows
from repro.api import (
    AlgorithmSpec,
    ExperimentPlan,
    Pipeline,
    PlanCell,
    ResultFrame,
    algorithms,
    by_name,
    register,
    run,
    unregister,
)
from repro.api.frame import RESULT_COLUMNS
from repro.core.metrics import TraceMetrics
from repro.exec import ShmSubstrate, shutdown_pool
from repro.machine.folding import FOLD_CACHE, fold_trace
from repro.networks import by_policy, fit, route_trace
from repro.networks import by_name as topo_by_name
from repro.networks.routing import ROUTE_CACHE


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_shipped_algorithms_registered(self):
        names = algorithms()
        for expected in (
            "matmul", "matmul-space", "fft", "sort", "stencil1d",
            "stencil2d", "broadcast", "prefix",
            "bsp-matmul-2d", "bsp-matmul-3d", "bsp-fft", "bsp-sort",
            "bsp-broadcast",
        ):
            assert expected in names

    def test_kind_filter_partitions(self):
        obl = algorithms(kind="oblivious")
        base = algorithms(kind="baseline")
        assert set(obl) | set(base) == set(algorithms())
        assert set(obl).isdisjoint(base)
        assert all(n.startswith("bsp-") for n in base)

    def test_by_name_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            by_name("nope")

    @pytest.mark.parametrize(
        "name,n,params",
        [
            ("matmul", 15, {}),          # not a square of a power of two
            ("matmul", 4, {}),           # too small
            ("fft", 100, {}),            # not a power of two
            ("sort", 0, {}),
            ("stencil1d", 2, {}),
            ("broadcast", 64, {"kappa": 3}),
            ("bsp-fft", 64, {"p": 16}),  # p^2 > n
            ("bsp-matmul-3d", 256, {"p": 4}),  # p not a cube
            ("bsp-sort", 64, {}),        # baseline without p
        ],
    )
    def test_validate_rejects(self, name, n, params):
        with pytest.raises(ValueError):
            by_name(name).validate(n, **params)

    @pytest.mark.parametrize(
        "name,n,params",
        [
            ("matmul", 64, {}),
            ("matmul-space", 64, {}),
            ("fft", 64, {}),
            ("sort", 64, {}),
            ("stencil1d", 16, {}),
            ("stencil2d", 4, {}),
            ("broadcast", 64, {}),
            ("prefix", 64, {}),
            ("bsp-matmul-2d", 256, {"p": 4}),
            ("bsp-matmul-3d", 256, {"p": 8}),
            ("bsp-fft", 256, {"p": 4}),
            ("bsp-sort", 256, {"p": 4}),
            ("bsp-broadcast", 64, {"sigma": 4.0}),
        ],
    )
    def test_every_spec_runs(self, name, n, params):
        spec = by_name(name)
        result = spec.run(n, seed=1, **params)
        assert result.trace.total_messages > 0
        desc = spec.describe(result)
        assert desc["algorithm"] == name
        assert desc["v"] == result.v

    def test_spec_runs_are_seed_deterministic(self):
        a = by_name("sort").run(64, seed=7)
        b = by_name("sort").run(64, seed=7)
        assert np.array_equal(a.trace.src, b.trace.src)
        assert np.array_equal(a.output, b.output)


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
@pytest.fixture
def counting_spec():
    calls = {"n": 0}

    def emit(n, rng):
        calls["n"] += 1
        from repro.algorithms import fft

        return fft.run(rng.random(n))

    spec = AlgorithmSpec(
        name="_counting",
        summary="test spec",
        kind="oblivious",
        section="test",
        emit=emit,
        check=lambda n: None,
        default_sizes=(64,),
    )
    register(spec)
    yield calls
    unregister("_counting")


class TestPipeline:
    def test_construction_is_lazy(self, counting_spec):
        pipe = run("_counting", n=64)
        chain = pipe.fold(8).route("ring")
        assert counting_spec["n"] == 0
        assert "lazy" in repr(chain)

    def test_source_materialises_exactly_once(self, counting_spec):
        pipe = run("_counting", n=64)
        f1 = pipe.fold(8)
        f2 = pipe.fold(16)
        r1 = f1.route("ring")
        r2 = f1.route("hypercube")
        for stage in (f1, f2, r1, r2):
            stage.metrics(sigma=1.0)
        assert counting_spec["n"] == 1
        assert pipe.result is r1.result

    def test_run_validates_eagerly(self):
        with pytest.raises(ValueError):
            run("matmul", n=15)

    def test_metrics_row_matches_direct_computation(self):
        pipe = run("matmul", n=64, seed=3)
        row = pipe.fold(16).route("torus2d", policy="valiant").metrics(sigma=2.0)
        tm = TraceMetrics(pipe.trace)
        assert row.H == tm.H(16, 2.0)
        profile = route_trace(pipe.trace, topo_by_name("torus2d", 16),
                              by_policy("valiant", 0))
        assert row.routed_time == profile.total_time
        assert row.max_congestion == profile.max_congestion
        assert row.topology == "torus2d" and row.policy == "valiant"
        assert row.p == 16 and row.v == 64
        d = row.as_dict()
        assert d["H"] == row.H and d["routed_time"] == row.routed_time

    def test_fold_stage_trace_is_folded(self):
        pipe = run("fft", n=64)
        assert pipe.fold(8).trace.v == 8
        assert pipe.trace.v == 64

    def test_route_defaults_to_chain_fold_p(self):
        pipe = run("fft", n=64)
        assert pipe.fold(8).route("ring").profile.p == 8
        assert pipe.route("ring").profile.p == 64
        assert pipe.route("ring", p=4).profile.p == 4

    def test_H_and_D_helpers(self):
        pipe = run("fft", n=64)
        tm = TraceMetrics(pipe.trace)
        assert pipe.fold(8).H(sigma=1.0) == tm.H(8, 1.0)
        from repro.models import PRESETS

        assert pipe.fold(8).D("hypercube") == tm.D_machine(PRESETS["hypercube"](8))

    def test_from_trace_pipeline(self):
        trace = run("fft", n=64).trace
        pipe = Pipeline.from_trace(trace, label="mine")
        row = pipe.fold(8).metrics(sigma=0.0)
        assert row.algorithm == "mine"
        assert row.H == TraceMetrics(trace).H(8, 0.0)
        with pytest.raises(AttributeError):
            pipe.result

    def test_mid_chain_reuse_hits_caches_only(self):
        """A reused fold/route stage performs zero re-folds/re-routes."""
        pipe = run("matmul", n=64, seed=5)
        base = pipe.fold(16)
        base.trace  # materialise the fold once
        r1 = base.route("torus2d")
        r1.profile  # materialise the route once

        fold_before = FOLD_CACHE.stats()
        route_before = ROUTE_CACHE.stats()
        # New chain objects over the same source: all work must be LRU hits.
        pipe.fold(16).trace
        pipe.fold(16).route("torus2d").profile
        fold_after = FOLD_CACHE.stats()
        route_after = ROUTE_CACHE.stats()
        assert fold_after["misses"] == fold_before["misses"]
        assert route_after["misses"] == route_before["misses"]
        assert route_after["hits"] > route_before["hits"]


# ----------------------------------------------------------------------
# Cache observability: hits, misses *and* evictions
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_route_cache_reports_evictions(self, monkeypatch):
        ROUTE_CACHE.clear()
        monkeypatch.setattr(ROUTE_CACHE, "maxsize", 2)
        trace = run("prefix", n=64, seed=1).trace
        for name in ("ring", "mesh2d", "hypercube", "butterfly"):
            route_trace(trace, topo_by_name(name, 8))
        stats = ROUTE_CACHE.stats()
        assert stats["misses"] == 4 and stats["evictions"] == 2
        # Hitting a surviving entry adds a hit, never an eviction.
        route_trace(trace, topo_by_name("butterfly", 8))
        after = ROUTE_CACHE.stats()
        assert after["hits"] == stats["hits"] + 1
        assert after["evictions"] == stats["evictions"]
        ROUTE_CACHE.clear()
        assert ROUTE_CACHE.stats() == {"hits": 0, "misses": 0, "evictions": 0}

    def test_fold_cache_reports_evictions(self):
        # Each trace's fold memo holds its representative sub-trace and
        # its table, and at each p the fold, the level row and two
        # policies' legs; more Valiant seeds at one p than that leaves
        # room for must evict the oldest entries.
        import repro.machine.folding as folding
        from repro.networks.policy import ValiantPolicy
        from repro.networks.routing import fold_legs

        FOLD_CACHE.clear()
        trace = run("prefix", n=64, seed=2).trace
        room = folding._local_maxsize(trace.v)
        topo = topo_by_name("ring", 8)
        for seed in range(room + 3):
            fold_legs(trace, topo, ValiantPolicy(seed))
        stats = FOLD_CACHE.stats()
        # sub-trace (made by validation) + table + fold + room + 3 legs:
        # 6 more entries than there is room.
        assert stats["misses"] == room + 6
        assert stats["evictions"] == 6
        # The fold is read by every draw, so it survives.
        fold_trace(trace, 8)
        assert FOLD_CACHE.stats()["evictions"] == 6
        assert FOLD_CACHE.stats()["hits"] == stats["hits"] + 1
        FOLD_CACHE.clear()
        assert FOLD_CACHE.stats() == {"hits": 0, "misses": 0, "evictions": 0}


# ----------------------------------------------------------------------
# ExperimentPlan
# ----------------------------------------------------------------------
class TestExperimentPlan:
    def _grid(self):
        return ExperimentPlan.grid(
            algorithms=["fft"],
            ns=[256],
            ps=[4, 16],
            topologies=["ring", "torus2d", "hypercube"],
            policies=["dimension-order", "valiant"],
        )

    def test_grid_cell_count_and_order(self):
        plan = self._grid()
        assert len(plan) == 2 * 3 * 2
        first = plan.cells[0]
        assert (first.p, first.topology, first.policy) == (
            4, "ring", "dimension-order",
        )

    def test_parallel_executors_bit_identical_to_serial(self):
        plan = self._grid()
        oracle = oracle_rows(plan)
        serial = plan.run(executor="serial")
        assert serial.rows == oracle
        try:
            shm = plan.run(executor=ShmSubstrate(workers=2, force=True))
        finally:
            shutdown_pool()
        assert shm.rows == oracle

    def test_parallel_executor_cold_caches_identical(self):
        plan = self._grid()
        serial = plan.run(executor="serial")
        FOLD_CACHE.clear()
        ROUTE_CACHE.clear()
        try:
            shm = plan.run(executor=ShmSubstrate(workers=2, force=True))
        finally:
            shutdown_pool()
        assert serial.rows == shm.rows

    def test_mixed_cells_and_baselines(self):
        plan = ExperimentPlan.grid(
            algorithms=["bsp-fft"],
            ns=[256],
            ps=[4],
            sigmas=[0.0, 2.0],
            machines=["hypercube"],
        )
        frame = plan.run()
        rows = frame.as_dicts()
        assert len(rows) == 3
        assert rows[0]["H"] is not None
        assert rows[2]["machine"] == "hypercube" and rows[2]["D"] > 0

    def test_unknown_algorithm_fails_fast(self):
        plan = ExperimentPlan([PlanCell(algorithm="nope", n=4)])
        with pytest.raises(KeyError):
            plan.run()

    def test_invalid_size_fails_fast_without_running(self):
        plan = ExperimentPlan([PlanCell(algorithm="matmul", n=15)])
        with pytest.raises(ValueError):
            plan.run()

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            (dict(topology="nope"), KeyError, "unknown topology 'nope'"),
            (dict(topology="ring", policy="nope"), KeyError, "unknown policy 'nope'"),
            (
                dict(topology="ring", policy="valiant", policy_seed=-1),
                ValueError, "seed must be non-negative, got -1",
            ),
            (dict(machine="nope"), KeyError, "unknown machine preset 'nope'"),
            (
                dict(topology="ring", mode="sim", arbiter="random", arbiter_seed=-1),
                ValueError, "seed must be non-negative, got -1",
            ),
            (
                dict(p=3, topology="ring", mode="sim"), ValueError,
                r"cell 1 \(fft n=64\): p must be a positive power of two, got 3",
            ),
            (
                dict(p=0, sigma=1.0), ValueError,
                r"cell 1 \(fft n=64\): p must be a positive power of two, got 0",
            ),
        ],
        ids=[
            "topology", "policy", "policy-seed", "machine", "arbiter-seed",
            "p-not-power-of-two", "p-zero",
        ],
    )
    def test_bad_names_and_seeds_fail_before_any_emission(self, bad, error, match):
        good = PlanCell(algorithm="fft", n=64, p=8, topology="ring", sigma=1.0)
        bad = PlanCell(**{"algorithm": "fft", "n": 64, "p": 8, **bad})
        plan = ExperimentPlan([good, bad])
        repro.clear_caches()
        with pytest.raises(error, match=match):
            plan.validate()
        with pytest.raises(error, match=match):
            plan.run()
        stats = repro.cache_stats()
        assert stats["fold"]["misses"] == 0 and stats["route"]["misses"] == 0

    def test_validate_accepts_policy_instances_and_plan_machines(self):
        from repro.models import PRESETS
        from repro.networks import ValiantPolicy

        cells = [
            PlanCell(algorithm="fft", n=64, p=8, topology="ring",
                     policy=ValiantPolicy(3)),
            PlanCell(algorithm="fft", n=64, p=8, machine="mine"),
        ]
        plan = ExperimentPlan(cells, machines={"mine": PRESETS["hypercube"]})
        plan.validate()
        assert plan.run().rows == oracle_rows(plan)
        preset = ExperimentPlan(cells[1:], machines={"other": PRESETS["hypercube"]})
        with pytest.raises(KeyError, match="unknown machine preset 'mine'"):
            preset.validate()

    @pytest.mark.parametrize(
        "good,bad",
        [
            (dict(algorithm="bsp-fft", p=4), dict(algorithm="bsp-fft", p=16)),
            (
                dict(algorithm="broadcast", params=(("kappa", 4),)),
                dict(algorithm="broadcast", params=(("kappa", 3),)),
            ),
        ],
        ids=["p", "param"],
    )
    def test_validate_memo_still_rejects_a_new_source(self, good, bad):
        # Many identical valid cells, then one with the same (algorithm, n)
        # and an unsupported p or param.
        cells = [PlanCell(n=64, **good)] * 20
        ExperimentPlan(cells).validate()
        with pytest.raises(ValueError):
            ExperimentPlan([*cells, PlanCell(n=64, **bad)]).validate()

    def test_validate_checks_each_typed_source_once(self):
        seen = []

        def check(n, k=1):
            seen.append(k)
            if type(k) is not int or k < 1:
                raise ValueError(f"k must be a positive int, got {k!r}")

        register(AlgorithmSpec(
            name="_checked", summary="test spec", kind="oblivious",
            section="test", emit=None, check=check,
        ))
        try:
            one = PlanCell(algorithm="_checked", n=64, params=(("k", 1),))
            ExperimentPlan([one] * 30).validate()
            assert seen == [1]
            # 1.0 and True equal 1 but are other sources, checked anew.
            for k in (1.0, True):
                with pytest.raises(ValueError, match="positive int"):
                    ExperimentPlan([one, replace(one, params=(("k", k),))]).validate()
            # Unhashable params are checked on every cell.
            seen.clear()
            array = replace(one, params=(("k", np.array([1, 2])),))
            with pytest.raises(ValueError, match="positive int"):
                ExperimentPlan([one, array]).validate()
            assert len(seen) == 2
        finally:
            unregister("_checked")

    def test_json_roundtrip(self, tmp_path):
        plan = self._grid()
        path = tmp_path / "plan.json"
        plan.to_json(path)
        loaded = ExperimentPlan.from_json(path)
        assert loaded.cells == plan.cells
        assert loaded.run().rows == plan.run().rows

    def test_grid_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "name": "g",
            "grid": {"algorithms": ["matmul"], "ns": [64], "ps": [4],
                     "sigmas": [0.0]},
        }))
        frame = ExperimentPlan.from_json(path).run()
        assert len(frame) == 1
        assert frame.as_dicts()[0]["H"] == TraceMetrics(
            run("matmul", n=64).trace
        ).H(4, 0.0)

    def test_frame_exports(self, tmp_path):
        frame = self._grid().run()
        csv_text = frame.to_csv(tmp_path / "f.csv")
        assert csv_text.splitlines()[0] == ",".join(RESULT_COLUMNS)
        assert len(csv_text.splitlines()) == len(frame) + 1
        data = json.loads(frame.to_json(tmp_path / "f.json"))
        assert len(data["rows"]) == len(frame)
        assert (tmp_path / "f.csv").exists() and (tmp_path / "f.json").exists()

    def test_pivot(self):
        frame = self._grid().run()
        table = frame.pivot("p", "topology", "routed_time")
        assert table.index == (4, 16)
        assert table.columns == ("ring", "torus2d", "hypercube")


# ----------------------------------------------------------------------
# Classic sweep tables as plans, bit-identical to direct computation
# ----------------------------------------------------------------------
class TestSweepPlans:
    @pytest.fixture
    def trace(self):
        return run("fft", n=256, seed=2).trace

    def test_network_grid_bit_identical_to_legacy(self, trace):
        ps = [4, 16]
        topologies = ("ring", "torus2d", "hypercube")
        policies = ("dimension-order", "valiant")
        frame = ExperimentPlan.from_trace(
            trace, ps=ps, topologies=topologies, policies=policies
        ).run()
        # The pre-plan implementation, inlined as the oracle; the grid
        # expands p-major, then topology, then policy.
        tm = TraceMetrics(trace)
        resolved = [by_policy(p, 0) for p in policies]
        legacy = [
            route_trace(tm.trace, topo_by_name(t, p), pol).total_time
            for p in ps
            for t in topologies
            for pol in resolved
        ]
        assert list(frame.column("routed_time")) == legacy
        assert list(frame.column("policy")) == [
            pol.name for _ in ps for _ in topologies for pol in resolved
        ]

    def test_network_grid_distinct_same_named_policies(self, trace):
        """Two ValiantPolicy seeds share the name 'valiant' but must keep
        their own cells."""
        from repro.networks import ValiantPolicy

        pols = [ValiantPolicy(0), ValiantPolicy(7)]
        frame = ExperimentPlan.from_trace(
            trace, ps=[16], topologies=("torus2d",), policies=pols
        ).run()
        tm = TraceMetrics(trace)
        expected = [
            route_trace(tm.trace, topo_by_name("torus2d", 16), pol).total_time
            for pol in pols
        ]
        assert list(frame.column("routed_time")) == expected
        assert expected[0] != expected[1]  # seeds actually differ

    def test_network_grid_relative_mode(self, trace):
        frame = ExperimentPlan.from_trace(
            trace, ps=[16], topologies=("torus2d",), relative_to_dbsp=True
        ).run()
        table = frame.pivot("p", "topology", "routed_over_dbsp")
        tm = TraceMetrics(trace)
        topo = topo_by_name("torus2d", 16)
        expected = route_trace(tm.trace, topo).total_time / tm.D_machine(fit(topo))
        assert table.rows == ((expected,),)

    def test_h_grid_bit_identical(self, trace):
        tm = TraceMetrics(trace)
        frame = ExperimentPlan.from_trace(trace, ps=[4, 16], sigmas=(0.0, 2.0)).run()
        table = frame.pivot("p", "sigma", "H")
        assert table.rows == tuple(
            tuple(tm.H(p, s) for s in (0.0, 2.0)) for p in (4, 16)
        )


# ----------------------------------------------------------------------
# Public surface / CLI
# ----------------------------------------------------------------------
class TestPublicSurface:
    def test_repro_all_consistent(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
        for name in (
            "algorithms", "baselines", "networks", "api",
            "fold_trace", "route_trace", "Pipeline", "ExperimentPlan",
            "ResultFrame",
        ):
            assert name in repro.__all__

    def test_api_all_consistent(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_fold_route_reexports_are_canonical(self):
        assert repro.fold_trace is fold_trace
        assert repro.route_trace is route_trace


class TestCLI:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "torus2d" in out and "valiant" in out

    def test_plan(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "grid": {"algorithms": ["matmul"], "ns": [64], "ps": [4],
                     "topologies": ["ring"]},
        }))
        csv_out = tmp_path / "out.csv"
        assert main(["plan", str(path), "--csv", str(csv_out)]) == 0
        assert "routed_time" in capsys.readouterr().out
        assert csv_out.exists()

    def test_plan_workers_need_the_shm_executor(self, capsys, monkeypatch, tmp_path):
        from repro.__main__ import main

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"cells": [{"algorithm": "matmul", "n": 16}]}))
        for args in (["--workers", "2"], ["--executor", "serial", "--workers", "2"],
                     ["--executor", "shm", "--workers", "0"]):
            with pytest.raises(SystemExit) as err:
                main(["plan", str(path), *args])
            assert err.value.code == 2
        assert "needs --executor shm" in capsys.readouterr().err
        assert main(["plan", str(path), "--executor", "shm", "--workers", "2"]) == 0
        assert "executor=shm" in capsys.readouterr().out

    def test_plan_workers_follow_the_executor_from_the_environment(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.__main__ import main

        path = tmp_path / "p.json"
        path.write_text(json.dumps({"cells": [{"algorithm": "matmul", "n": 16}]}))
        monkeypatch.setenv("REPRO_EXECUTOR", "shm")
        assert main(["plan", str(path), "--workers", "2"]) == 0
        assert "executor=shm" in capsys.readouterr().out
        # The flag wins over the environment, in both directions.
        with pytest.raises(SystemExit) as err:
            main(["plan", str(path), "--executor", "serial", "--workers", "2"])
        assert err.value.code == 2
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        with pytest.raises(SystemExit):
            main(["plan", str(path), "--workers", "2"])
        assert main(["plan", str(path), "--executor", "shm", "--workers", "2"]) == 0


# ----------------------------------------------------------------------
# ResultFrame unit behaviour
# ----------------------------------------------------------------------
class TestResultFrame:
    def test_pivot_missing_cell_raises(self):
        frame = ResultFrame(("a", "b", "v"), ((1, "x", 1.0), (2, "y", 2.0)))
        with pytest.raises(ValueError, match="missing cell"):
            frame.pivot("a", "b", "v")

    def test_as_dicts_drop_none(self):
        frame = ResultFrame(("a", "b"), ((1, None),))
        assert frame.as_dicts(drop_none=True) == [{"a": 1}]
