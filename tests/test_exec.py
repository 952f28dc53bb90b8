"""The executor registry, the shm substrate, and the result store.

Covers the substrate contract (every registered executor reproduces the
per-cell oracle bit for bit, including the ``spawn`` pool hosts without
``fork`` get), the recorded degradation paths (shm -> serial on one CPU
or tiny plans, shm -> in-line after a worker dies), the persistent
cell-hash result store (warm runs do zero folds/routes/sims; code
edits invalidate, version bumps alone do not; batched keys and reads
equal their one-at-a-time forms; reads never write, so a writer
elsewhere does not block a warm run; two processes writing one store
both get the oracle frame and leave the union of their rows; older and
corrupt files behave; ``run`` closes only stores it opened), and the
aggregated ``repro.cache_stats()`` registry.
"""

from __future__ import annotations

import json
import multiprocessing.connection
import os
import pickle
import shutil
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from conftest import oracle_rows
from repro import cache_stats, clear_caches
from repro.api import ExperimentPlan, run
from repro.api.plan import PlanCell
from repro.exec import (
    ResultStore,
    ShmSubstrate,
    by_executor,
    cell_key,
    cell_keys,
    executors,
    shutdown_pool,
)
from repro.exec import store as store_mod
from repro.exec.store import _fingerprint


# One plan run against a shared store in its own process: argv is the
# store path, the plan's JSON and the file its (rows, meta) go to.  It
# says "ready" once imported and starts when a line arrives on stdin.
_STORE_WRITER = """
import pickle, sys
from repro.api import ExperimentPlan
plan = ExperimentPlan.from_json(sys.argv[2])
print("ready", flush=True)
sys.stdin.readline()
frame = plan.run(store=sys.argv[1])
with open(sys.argv[3], "wb") as out:
    pickle.dump((frame.rows, dict(frame.metadata)), out)
"""


def _grid(name="exec-grid"):
    return ExperimentPlan.grid(
        algorithms=["stencil1d"],
        ns=[256],
        ps=[4, 16],
        topologies=["ring", "hypercube"],
        policies=["dimension-order", "valiant"],
        name=name,
    )


_scalars = (
    st.none() | st.booleans() | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False) | st.text(max_size=4)
)
_cells = st.builds(
    PlanCell,
    algorithm=st.sampled_from(["fft", "sort", "stencil1d", "@trace"]),
    n=st.none() | st.integers(1, 2**20),
    p=st.none() | st.integers(1, 64),
    sigma=st.none() | st.floats(allow_nan=False) | st.integers(0, 8),
    topology=st.none() | st.sampled_from(["ring", "hypercube"]),
    policy=st.none() | st.sampled_from(["dimension-order", "valiant"]),
    machine=st.none() | st.sampled_from(["cluster", "mesh2d"]),
    mode=st.sampled_from(["analytic", "sim"]),
    seed=st.integers(0, 3),
    params=st.dictionaries(st.text(min_size=1, max_size=3), _scalars, max_size=3)
    .map(lambda d: tuple(sorted(d.items()))),
)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_backends_registered(self):
        assert executors() == ("serial", "shm")

    def test_by_executor_builds_fresh_instances(self):
        a, b = by_executor("serial"), by_executor("serial")
        assert a is not b and a.name == "serial"

    def test_unknown_backend_fails_fast(self):
        with pytest.raises(ValueError, match="unknown executor"):
            by_executor("nope")
        with pytest.raises(ValueError, match="nope"):
            ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4]).run(
                executor="nope"
            )

    def test_deleted_executors_fail_fast(self):
        """``thread`` and ``process`` were folded into ``serial``/``shm``:
        asking for either names the surviving choices."""
        for name in ("thread", "process"):
            with pytest.raises(ValueError, match="choose from serial, shm"):
                by_executor(name)

    def test_env_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "shm")
        frame = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4]).run()
        assert frame.metadata["executor"] == "shm"
        # One cell is under the pool's size gate: recorded, run in-line.
        assert frame.metadata["executor_effective"] == "serial"

    def test_concurrent_registration_is_safe(self):
        # Regression (RPR004): register_executor mutated EXECUTORS unlocked.
        import threading

        from repro.exec.registry import EXECUTORS, register_executor

        names = [f"_lint_tmp_{i}" for i in range(32)]
        try:
            threads = [
                threading.Thread(target=register_executor, args=(n, object))
                for n in names
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert set(names) <= set(executors())
        finally:
            for n in names:
                EXECUTORS.pop(n, None)


# ----------------------------------------------------------------------
# Substrate equivalence: every executor reproduces the per-cell oracle
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    def test_every_backend_bit_identical_to_serial(self):
        plan = _grid()
        oracle = oracle_rows(plan)
        serial = plan.run(executor="serial")
        assert serial.metadata["executor_effective"] == "serial"
        assert serial.rows == oracle
        # The real pool, even on a single-CPU container.
        shm = plan.run(executor=ShmSubstrate(workers=2, force=True))
        assert shm.rows == oracle
        assert shm.metadata["executor_effective"] == "shm"
        assert shm.metadata["shm_workers"] == 2
        shutdown_pool()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_shm_pool_size_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ShmSubstrate(workers=workers)

    def test_shm_pool_recovers_from_a_killed_worker(self, monkeypatch):
        import repro.exec.shm as shm_mod

        plan = ExperimentPlan.grid(
            ["fft"], ns=[64], ps=[4, 8], topologies=["ring", "hypercube"],
            modes=["analytic", "sim"],
        )
        oracle = oracle_rows(plan)
        # Only this test's own source blocks: other processes on the host
        # may create and keep segments of their own meanwhile.
        segments = []
        pack = shm_mod._pack_sources

        def recording_pack(runtime):
            payload, block = pack(runtime)
            segments.append(block.name.lstrip("/"))
            return payload, block

        monkeypatch.setattr(shm_mod, "_pack_sources", recording_pack)
        substrate = ShmSubstrate(workers=2, force=True)
        shutdown_pool()
        first = plan.run(executor=substrate)
        assert first.metadata["executor_effective"] == "shm"
        pid, proc = next(iter(shm_mod._POOL._processes.items()))
        os.kill(pid, signal.SIGKILL)
        # The pool's manager thread reaps the same child, so wait on the
        # sentinel (closed when the process dies) rather than join/poll.
        assert multiprocessing.connection.wait([proc.sentinel], 10)
        with pytest.warns(RuntimeWarning, match="pool failed"):
            second = plan.run(executor=substrate)
        assert second.rows == oracle
        assert second.metadata["executor_effective"] == "serial"
        assert second.metadata["executor_downgrade"].startswith("pool failure")
        third = plan.run(executor=substrate)
        assert third.rows == oracle
        assert third.metadata["executor_effective"] == "shm"
        shutdown_pool()
        assert len(segments) == 3  # every run packed its sources
        assert not set(segments) & set(os.listdir("/dev/shm"))

    def test_shm_pool_shut_down_by_another_run_finishes_in_line(
        self, monkeypatch
    ):
        import repro.exec.shm as shm_mod

        plan = _grid()
        shutdown_pool()
        held = shm_mod._ensure_pool(2)
        shutdown_pool()  # another run tears the shared pool down ...
        fresh = shm_mod._ensure_pool(2)  # ... and a third starts a new one
        monkeypatch.setattr(shm_mod, "_ensure_pool", lambda workers: held)
        with pytest.warns(RuntimeWarning, match="pool failed"):
            frame = plan.run(executor=ShmSubstrate(workers=2, force=True))
        assert frame.rows == oracle_rows(plan)
        assert frame.metadata["executor_downgrade"].startswith("pool failure")
        assert shm_mod._POOL is fresh  # the newer pool is left running
        shutdown_pool()

    def test_shm_downgrades_recorded_on_small_hosts(self, monkeypatch):
        import repro.exec.shm as shm_mod

        monkeypatch.setattr(shm_mod.os, "cpu_count", lambda: 1)
        frame = _grid().run(executor="shm")
        assert frame.metadata["executor"] == "shm"
        assert frame.metadata["executor_effective"] == "serial"
        assert frame.metadata["executor_downgrade"] == "single-CPU host"
        assert frame.rows == oracle_rows(_grid())

    def test_shm_downgrades_on_tiny_plans(self, monkeypatch):
        import repro.exec.shm as shm_mod

        monkeypatch.setattr(shm_mod.os, "cpu_count", lambda: 8)
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4])
        frame = plan.run(executor="shm")
        assert frame.metadata["executor_effective"] == "serial"
        assert "smaller than" in frame.metadata["executor_downgrade"]

    def test_shm_spawn_pool_without_fork(self, monkeypatch):
        # Hosts without fork get a spawn pool: fresh interpreters that
        # import the package and attach the shared block by name.
        import repro.exec.shm as shm_mod

        monkeypatch.setattr(
            shm_mod.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        plan = _grid()
        shutdown_pool()
        try:
            frame = plan.run(executor=ShmSubstrate(workers=2, force=True))
            assert shm_mod._POOL._mp_context.get_start_method() == "spawn"
        finally:
            shutdown_pool()
        assert frame.rows == oracle_rows(plan)
        assert frame.metadata["executor_effective"] == "shm"

    def test_frame_meta_survives_json(self, tmp_path, monkeypatch):
        # A CI leg's REPRO_EXECUTOR would change the default executor.
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        frame = _grid().run()
        data = json.loads(frame.to_json(tmp_path / "f.json"))
        assert dict(data["meta"])["executor_effective"] == "serial"


# ----------------------------------------------------------------------
# Cell hashing
# ----------------------------------------------------------------------
class TestCellKey:
    def test_key_is_stable_and_field_sensitive(self):
        cell = PlanCell(algorithm="fft", n=256, p=4, topology="ring")
        assert cell_key(cell) == cell_key(cell)
        changed = PlanCell(algorithm="fft", n=256, p=8, topology="ring")
        assert cell_key(cell) != cell_key(changed)

    def test_version_and_check_are_part_of_the_key(self, monkeypatch):
        # The code version is the source fingerprint, not __version__.
        cell = PlanCell(algorithm="fft", n=256, p=4)
        before = cell_key(cell)
        monkeypatch.setattr(store_mod, "_code_fingerprint", lambda: "edited")
        assert cell_key(cell) != before
        assert cell_key(cell, check=True) != cell_key(cell, check=False)

    def test_non_declarative_cells_are_uncacheable(self):
        from repro.networks import by_policy

        assert cell_key(PlanCell(algorithm="@trace", n=None)) is None
        policy = by_policy("valiant", 0)
        assert (
            cell_key(PlanCell(algorithm="fft", n=256, policy=policy)) is None
        )
        weird = PlanCell(algorithm="fft", n=256, params=(("f", object()),))
        assert cell_key(weird) is None
        array = PlanCell(algorithm="fft", n=256, params=(("f", np.arange(3)),))
        assert cell_key(array) is None

    @given(st.lists(_cells, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_one_at_a_time(self, cells):
        for check in (False, True):
            assert cell_keys(cells, check=check) == [
                cell_key(c, check=check) for c in cells
            ]

    @given(
        st.integers(1, 2**31 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(2**31), 2**31 - 1),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_numpy_scalars_key_like_their_python_twins(self, n, sigma, k, flag):
        twin = PlanCell(
            algorithm="fft", n=n, sigma=sigma, params=(("a", k), ("b", flag))
        )
        numpy = PlanCell(
            algorithm=np.str_("fft"), n=np.int64(n), sigma=np.float64(sigma),
            params=(("b", np.bool_(flag)), ("a", np.int32(k))),
        )
        assert cell_key(numpy) == cell_key(twin) is not None

    def test_int_float_and_bool_key_apart(self):
        sigmas = [PlanCell(algorithm="fft", n=256, sigma=v) for v in (1, 1.0, True)]
        params = [
            PlanCell(algorithm="fft", n=256, params=(("a", v),))
            for v in (1, 1.0, True)
        ]
        for cells in (sigmas, params):
            keys = cell_keys(cells)
            assert None not in keys and len(set(keys)) == 3


class TestFingerprint:
    def _copy(self, tmp_path):
        root = Path(store_mod.__file__).resolve().parents[1]
        copy = tmp_path / "repro"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns("__pycache__"))
        return copy

    def test_kernel_edit_changes_the_digest(self, tmp_path):
        copy = self._copy(tmp_path)
        before = _fingerprint(copy)
        kernel = copy / "machine" / "folding.py"
        kernel.write_text(kernel.read_text() + "\n# edited\n")
        assert _fingerprint(copy) != before

    def test_version_cli_and_lint_are_excluded(self, tmp_path):
        copy = self._copy(tmp_path)
        before = _fingerprint(copy)
        for rel in ("__init__.py", "__main__.py", "lint/__init__.py"):
            path = copy / rel
            path.write_text(path.read_text() + "\n# edited\n")
        assert _fingerprint(copy) == before


# ----------------------------------------------------------------------
# The persistent result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_warm_run_hits_everything_and_computes_nothing(
        self, tmp_path, monkeypatch
    ):
        # Under REPRO_SANITIZE=1 a sample of warm hits is deliberately
        # re-derived end to end (the store spot-check); pin it off so
        # "computes nothing" is the invariant actually under test.
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        store = ResultStore(tmp_path / "results.db")
        plan = _grid()
        cold = plan.run(executor="serial", store=store)
        assert cold.metadata["store_misses"] == len(plan)
        assert len(store) == len(plan)

        # A warm run must not fold, route or simulate anything: clear the
        # in-memory LRUs and check their counters stay at zero.
        clear_caches()
        warm = plan.run(executor="serial", store=store)
        assert warm.rows == cold.rows
        assert warm.metadata["store_hits"] == len(plan)
        assert warm.metadata["store_misses"] == 0
        stats = cache_stats()
        for lru in ("fold", "route", "sim"):
            assert stats[lru]["misses"] == 0, lru
            assert stats[lru]["hits"] == 0, lru
        assert stats["store"]["hits"] >= len(plan)

    def test_store_path_accepted_directly(self, tmp_path):
        path = tmp_path / "results.db"
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4, 8])
        cold = plan.run(store=path)
        warm = plan.run(store=str(path))
        assert warm.rows == cold.rows
        assert warm.metadata["store_hits"] == len(plan)

    def test_store_wraps_any_inner_backend(self, tmp_path):
        store = ResultStore(tmp_path / "results.db")
        plan = _grid()
        oracle = oracle_rows(plan)
        substrate = ShmSubstrate(workers=2, force=True)
        try:
            cold = plan.run(executor=substrate, store=store)
            warm = plan.run(executor=substrate, store=store)
        finally:
            shutdown_pool()
        assert cold.rows == oracle
        assert cold.metadata["executor_effective"] == "shm"
        assert warm.rows == oracle
        # All-hit runs never compile the stage graph.
        assert warm.metadata["store_hits"] == len(plan)
        assert "dag_stages_planned" not in warm.metadata

    def test_run_closes_only_the_store_it_opened(self, tmp_path, monkeypatch):
        closed = []
        real_close = ResultStore.close

        def spy(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(ResultStore, "close", spy)
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4])
        path = tmp_path / "results.db"
        plan.run(store=path)
        assert len(closed) == 1 and closed[0].path == path
        mine = ResultStore(path)
        frame = plan.run(store=mine)
        assert len(closed) == 1  # the caller's store stays open
        assert frame.metadata["store_hits"] == len(plan)
        assert len(mine) == len(plan)
        mine.close()

    def test_version_bump_alone_still_hits(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "results.db")
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4, 8])
        plan.run(store=store)
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        warm = plan.run(store=store)
        assert warm.metadata["store_hits"] == len(plan)
        assert warm.metadata["store_misses"] == 0

    def test_at_cells_bypass_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "results.db")
        trace = run("stencil1d", n=64).trace
        plan = ExperimentPlan.from_trace(trace, ps=[4, 8], topologies=["ring"])
        first = plan.run(store=store)
        second = plan.run(store=store)
        assert first.rows == second.rows
        assert len(store) == 0  # nothing of unknown provenance was stored
        assert second.metadata["store_hits"] == 0

    def test_unbounded_get_many_writes_nothing(self, tmp_path):
        path = tmp_path / "results.db"
        store = ResultStore(path)
        store.put_many({f"k{i}": (i,) for i in range(50)})
        changes = store._conn.total_changes
        before = path.read_bytes()
        found = store.get_many([f"k{i}" for i in range(0, 100, 3)])
        assert found == {f"k{i}": (i,) for i in range(0, 50, 3)}
        assert store._conn.total_changes == changes
        assert not store._conn.in_transaction
        assert path.read_bytes() == before
        store.close()

    @pytest.mark.parametrize(
        "without_rowid", [False, True], ids=["rowid", "without-rowid"]
    )
    def test_older_files_open_serving_none_of_their_rows(
        self, tmp_path, without_rowid
    ):
        new = ResultStore(tmp_path / "new.db")
        (sql,) = new._conn.execute("SELECT sql FROM sqlite_master").fetchone()
        assert sql.endswith("WITHOUT ROWID")
        new.close()
        # The ``results`` table older releases wrote, in both layouts.
        path = tmp_path / "old.db"
        old = sqlite3.connect(str(path))
        with old:
            old.execute(
                "CREATE TABLE results (key TEXT PRIMARY KEY, version TEXT NOT NULL,"
                " row TEXT NOT NULL, seq INTEGER NOT NULL)"
                + (" WITHOUT ROWID" if without_rowid else "")
            )
            old.executemany(
                "INSERT INTO results VALUES (?, 'v', ?, ?)",
                [("k0", "[0]", 7), ("k1", "[1]", 8)],
            )
        old_rows = old.execute("SELECT * FROM results ORDER BY key").fetchall()
        old.close()
        store = ResultStore(path)
        assert store.get_many(["k0", "k1"]) == {}
        store.put_many({"k1": (10,), "k2": (2,)})
        assert store.get_many(["k0", "k1", "k2"]) == {"k1": (10,), "k2": (2,)}
        assert len(store) == 2
        store.close()
        old = sqlite3.connect(str(path))
        assert old.execute("SELECT * FROM results ORDER BY key").fetchall() == old_rows
        old.close()

    def test_warm_reads_not_blocked_by_a_writer(self, tmp_path):
        path = tmp_path / "results.db"
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4, 8])
        cold = plan.run(store=path)
        writer = sqlite3.connect(str(path), isolation_level=None)
        try:
            writer.execute("BEGIN IMMEDIATE")  # holds the write lock
            # A run that wrote here would wait out sqlite's busy timeout
            # and raise "database is locked".
            warm = plan.run(store=path)
        finally:
            writer.close()
        assert warm.rows == cold.rows == oracle_rows(plan)
        assert warm.metadata["store_hits"] == len(plan)

    def test_cold_run_against_a_locked_store_returns_its_frame(self, tmp_path):
        path = tmp_path / "results.db"
        ResultStore(path).close()
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4, 8])
        writer = sqlite3.connect(str(path), isolation_level=None)
        try:
            writer.execute("BEGIN IMMEDIATE")  # holds the write lock
            # put_many waits out sqlite's busy timeout, then gives up.
            cold = plan.run(store=path)
        finally:
            writer.close()
        assert cold.rows == plan.run().rows
        assert cold.metadata["store_write_skipped"] == len(plan)
        assert cold.metadata["store_misses"] == len(plan)
        # Once the lock is released the store takes writes again.
        again = plan.run(store=path)
        assert "store_write_skipped" not in again.metadata
        assert again.metadata["store_misses"] == len(plan)
        warm = plan.run(store=path)
        assert warm.metadata["store_hits"] == len(plan)
        assert warm.rows == cold.rows

    def test_get_many_across_chunks_equals_per_key_reads(self, tmp_path):
        store = ResultStore(tmp_path / "results.db")
        stored = {f"k{i:05d}": (i, f"r{i}", i / 7) for i in range(0, 4400, 2)}
        store.put_many(stored)
        keys = [f"k{i:05d}" for i in range(2100)]  # half of them absent
        keys.reverse()
        one_by_one = {}
        for key in keys:
            one_by_one.update(store.get_many([key]))
        before = cache_stats()["store"]
        assert store.get_many(keys) == one_by_one
        after = cache_stats()["store"]
        assert after["hits"] - before["hits"] == len(one_by_one) == 1050
        assert after["misses"] - before["misses"] == len(keys) - 1050
        store.close()

    def test_corrupt_files_fail_naming_the_path(self, tmp_path):
        garbage = tmp_path / "garbage.db"
        garbage.write_bytes(b"not a result store " * 64)
        real = tmp_path / "real.db"
        store = ResultStore(real)
        store.put_many({f"k{i}": (i, "x" * 64) for i in range(400)})
        store.close()
        truncated = tmp_path / "truncated.db"
        truncated.write_bytes(real.read_bytes()[: real.stat().st_size // 2])
        other = tmp_path / "other.db"  # sqlite, but its table has no row column
        conn = sqlite3.connect(str(other))
        with conn:
            conn.execute("CREATE TABLE cells (key TEXT PRIMARY KEY, value TEXT)")
        conn.close()
        for path in (garbage, truncated, other):
            with pytest.raises(sqlite3.DatabaseError, match="not a result store") as err:
                ResultStore(path)
            assert str(path) in str(err.value)
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4])
        with pytest.raises(sqlite3.DatabaseError, match=str(garbage)):
            plan.run(store=garbage)

    def test_two_processes_writing_one_store(self, tmp_path):
        def plan(ps):
            return ExperimentPlan.grid(
                ["stencil1d", "fft"], ns=[64], ps=ps, topologies=["ring"]
            )

        plans = [plan([4, 8]), plan([8, 16])]  # both hold the p=8 cells
        path = tmp_path / "results.db"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _STORE_WRITER, str(path), p.to_json(),
                 str(tmp_path / f"out{k}.pickle")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            )
            for k, p in enumerate(plans)
        ]
        try:
            for proc in procs:  # both imported: release them together
                assert proc.stdout.readline() == b"ready\n"
            for proc in procs:
                proc.stdin.write(b"go\n")
                proc.stdin.close()
            codes = [proc.wait(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
                proc.stdout.close()
        assert codes == [0, 0]
        for k, p in enumerate(plans):
            rows, meta = pickle.loads((tmp_path / f"out{k}.pickle").read_bytes())
            assert rows == oracle_rows(p)
            assert "store_write_skipped" not in meta
            assert meta["store_hits"] + meta["store_misses"] == len(p)
        union = set(cell_keys(plans[0].cells)) | set(cell_keys(plans[1].cells))
        store = ResultStore(path)
        try:
            assert len(store) == len(union)
            assert set(store.get_many(sorted(union))) == union
            both = plan([4, 8, 16])
            assert set(cell_keys(both.cells)) == union
            warm = both.run(store=store)
        finally:
            store.close()
        assert warm.metadata["store_hits"] == len(both)
        assert warm.rows == oracle_rows(both)

    def test_partial_hits_compute_only_the_misses(self, tmp_path):
        store = ResultStore(tmp_path / "results.db")
        small = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4])
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4, 8])
        small.run(store=store)
        frame = plan.run(store=store)
        assert frame.rows == oracle_rows(plan)
        assert frame.metadata["store_hits"] == len(small)
        assert frame.metadata["store_misses"] == len(plan) - len(small)
        assert len(store) == len(plan)


# ----------------------------------------------------------------------
# The aggregate cache registry
# ----------------------------------------------------------------------
class TestCacheRegistry:
    def test_aggregate_names_and_shape(self):
        from repro.util.caches import registered_caches

        assert registered_caches() == (
            "dag", "fold", "route", "sanitizer", "sim", "sim_engine", "store",
        )
        stats = cache_stats()
        for name in ("fold", "route", "sim"):
            assert {"hits", "misses", "evictions"} <= set(stats[name])
        assert set(stats["store"]) == {"hits", "misses"}

    def test_clear_caches_resets_every_counter(self, tmp_path):
        # Traffic for every entry: a cold plan run over a store routes and
        # simulates; the sanitizer counts whatever REPRO_SANITIZE arms.
        plan = ExperimentPlan.grid(
            algorithms=["fft"], ns=[64], ps=[4], topologies=["ring"],
            modes=["analytic", "sim"],
        )
        clear_caches()
        plan.run(store=tmp_path / "r.db")
        stats = cache_stats()
        assert stats["dag"]["runs"] and stats["sim_engine"]["fused_runs"]
        assert stats["store"]["misses"] and stats["route"]["misses"]
        clear_caches()
        for name, counters in cache_stats().items():
            counts = {k: v for k, v in counters.items() if k != "enabled"}
            assert set(counts.values()) == {0}, name
