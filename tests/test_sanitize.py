"""REPRO_SANITIZE=1: the runtime twin of the static lint pass.

Covers the two hook families (read-only guard, sampled engine
cross-check), the live env gating, the ``sanitizer`` entry of
``repro.cache_stats()``, and an injected fast-engine bug being trapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import repro
from repro.api import by_name
from repro.machine.trace import Trace
from repro.networks import by_name as network_by_name
from repro.sim import simulate_trace
from repro.sim.engine import SIM_CACHE
from repro.util import sanitize
from repro.util.sanitize import SanitizerError


@pytest.fixture(autouse=True)
def _reset_counters():
    sanitize.SANITIZER_COUNTERS.clear()
    yield
    sanitize.SANITIZER_COUNTERS.clear()


@pytest.fixture
def sanitizing(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "1")


def _trace():
    return by_name("stencil1d").run(64).trace


# ----------------------------------------------------------------------
# Gating and stats plumbing
# ----------------------------------------------------------------------
class TestGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        # Hooks are no-ops: a writeable array passes straight through.
        arr = np.zeros(3)
        assert sanitize.guard_cached((arr,), "test") == (arr,)
        assert not sanitize.should_crosscheck()

    def test_env_flag_is_read_live(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.enabled()

    def test_cache_stats_gains_sanitizer_field(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        stats = repro.cache_stats()
        assert "sanitizer" in stats
        assert {
            "enabled",
            "arrays_checked",
            "engine_checks",
            "violations",
        } <= set(stats["sanitizer"])
        assert stats["sanitizer"]["enabled"] == 0
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert repro.cache_stats()["sanitizer"]["enabled"] == 1

    def test_clear_caches_resets_sanitizer_counters(self, sanitizing):
        frozen = np.zeros(1)
        frozen.setflags(write=False)
        sanitize.guard_cached((frozen,), "test")
        assert repro.cache_stats()["sanitizer"]["arrays_checked"] == 1
        repro.clear_caches()
        assert repro.cache_stats()["sanitizer"]["arrays_checked"] == 0

    def test_sample_every_parses_and_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "7")
        assert sanitize.sample_every() == 7
        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "0")
        assert sanitize.sample_every() == 1
        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "junk")
        assert sanitize.sample_every() == 4


# ----------------------------------------------------------------------
# guard_cached — read-only cache entries
# ----------------------------------------------------------------------
class TestGuardCached:
    def test_writeable_array_trapped(self, sanitizing):
        with pytest.raises(SanitizerError, match="writeable ndarray"):
            sanitize.guard_cached((np.zeros(4),), "test")
        assert repro.cache_stats()["sanitizer"]["violations"] == 1

    def test_frozen_values_pass(self, sanitizing):
        arr = np.zeros(4)
        arr.setflags(write=False)
        value = {"a": arr, "b": [arr, (arr, 1)], "c": "scalar"}
        assert sanitize.guard_cached(value, "test") is value
        assert repro.cache_stats()["sanitizer"]["arrays_checked"] == 3

    def test_dataclass_fields_walked(self, sanitizing):
        @dataclass(frozen=True)
        class Profile:
            good: np.ndarray
            bad: np.ndarray

        good = np.zeros(2)
        good.setflags(write=False)
        with pytest.raises(SanitizerError):
            sanitize.guard_cached(Profile(good=good, bad=np.zeros(2)), "test")

    def test_trace_columns_walked(self, sanitizing):
        from repro.machine.folding import fold_trace

        folded = fold_trace(_trace(), 4)
        sanitize.SANITIZER_COUNTERS.clear()
        assert sanitize.guard_cached(folded, "test") is folded
        assert repro.cache_stats()["sanitizer"]["arrays_checked"] == 4
        thawed = np.array([0, 1], np.int64)  # a writable column
        bad = Trace(4, np.zeros(1, np.int64), np.array([0, 2]), thawed, thawed)
        thawed.setflags(write=True)
        with pytest.raises(SanitizerError):
            sanitize.guard_cached(bad, "test")

    def test_fold_cache_insertions_are_guarded(self, sanitizing):
        from repro.machine.folding import fold_degrees

        repro.clear_caches()
        fold_degrees(_trace(), 4)  # a miss: inserts under the guard
        stats = repro.cache_stats()["sanitizer"]
        assert stats["arrays_checked"] > 0
        assert stats["violations"] == 0


# ----------------------------------------------------------------------
# Sampled fast-vs-reference engine cross-check
# ----------------------------------------------------------------------
class TestEngineCrossCheck:
    def test_sampling_is_counter_based(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "2")
        picks = [sanitize.should_crosscheck() for _ in range(4)]
        assert picks == [True, False, True, False]

    def test_fast_engine_cross_checked_clean(self, sanitizing):
        repro.clear_caches()
        topo = network_by_name("mesh2d", 16)
        simulate_trace(_trace(), topo)
        stats = repro.cache_stats()["sanitizer"]
        assert stats["engine_checks"] >= 1
        assert stats["violations"] == 0

    def test_injected_fast_engine_bug_trapped(self, sanitizing, monkeypatch):
        import repro.sim.engine as engine

        real = engine._fast_run_batch

        def corrupted(cells):
            # off-by-one per superstep
            return [(c + 1, q, f) for c, q, f in real(cells)]

        monkeypatch.setattr(engine, "_fast_run_batch", corrupted)
        SIM_CACHE.clear()
        topo = network_by_name("mesh2d", 16)
        with pytest.raises(SanitizerError, match="diverges from the reference"):
            simulate_trace(_trace(), topo)
        assert repro.cache_stats()["sanitizer"]["violations"] == 1

    def test_check_engine_parity_compares_all_columns(self, sanitizing):
        a = np.arange(3)
        b = np.arange(3)
        sanitize.check_engine_parity((a, a, a), (b, b, b), "test")
        with pytest.raises(SanitizerError, match="edge_flits"):
            sanitize.check_engine_parity((a, a, a), (b, b, b + 1), "test")


# ----------------------------------------------------------------------
# Sampled row-parity spot-checks (DAG assembly + store hits)
# ----------------------------------------------------------------------
class TestRowParity:
    def _plan(self):
        from repro.api import ExperimentPlan

        return ExperimentPlan.grid(
            algorithms=["fft"],
            ns=[64],
            ps=[4, 8],
            topologies=["ring", "hypercube"],
            modes=["analytic", "sim"],
        )

    def test_spotcheck_counter_is_independent(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "2")
        assert sanitize.should_spotcheck()
        assert sanitize.should_crosscheck()  # separate counters
        assert not sanitize.should_spotcheck()
        assert sanitize.should_spotcheck()

    def test_check_row_parity_exact_and_tolerant(self, sanitizing):
        row = (1, "ring", 2.5, None, float("nan"))
        sanitize.check_row_parity(row, (1, "ring", 2.5, None, float("nan")))
        sanitize.check_row_parity((1.0,), (1,))  # JSON round-trip widening
        assert repro.cache_stats()["sanitizer"]["row_checks"] == 2
        with pytest.raises(SanitizerError, match="column 2"):
            sanitize.check_row_parity(row, (1, "ring", 2.75, None, 0.0))
        with pytest.raises(SanitizerError, match="columns"):
            sanitize.check_row_parity((1, 2), (1,))

    def test_dag_run_spot_checks_rows(self, sanitizing):
        sanitize.SANITIZER_COUNTERS.clear()
        self._plan().run()
        stats = repro.cache_stats()["sanitizer"]
        assert stats["row_checks"] >= len(self._plan())
        assert stats["violations"] == 0

    def test_store_hits_spot_checked(self, sanitizing, tmp_path, monkeypatch):
        plan = self._plan()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        plan.run(store=tmp_path / "r.db")  # cold fill, unsanitized
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitize.SANITIZER_COUNTERS.clear()
        warm = plan.run(store=tmp_path / "r.db")
        assert warm.metadata["store_hits"] == len(plan)
        stats = repro.cache_stats()["sanitizer"]
        assert stats["row_checks"] == len(plan)  # SAMPLE=1: every hit
        assert stats["violations"] == 0

    def test_corrupted_store_row_trapped(self, sanitizing, tmp_path):
        from repro.exec import ResultStore, cell_key

        plan = self._plan()
        store = ResultStore(tmp_path / "r.db")
        plan.run(store=store)
        key = cell_key(plan.cells[0])
        row = store.get_many([key])[key]
        store.put_many({key: row[:-1] + (row[-1] + 1 if row[-1] else 1,)})
        with pytest.raises(SanitizerError, match="store hit cell"):
            plan.run(store=store)
