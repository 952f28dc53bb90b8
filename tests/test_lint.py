"""repro.lint: fixture snippets per check, the registry, CLI and meta-lint.

Each check gets three fixtures — a positive hit, a clean pass and a
``# repro: noqa[...]`` suppression — linted from a tmp directory so the
path-scoped checks see neutral paths.  The meta-tests then hold the
repository to its own standard: ``python -m repro.lint src/`` must run
every shipped check and exit 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    CHECKS,
    Check,
    Violation,
    by_check,
    checks,
    collect_files,
    register_check,
    run_lint,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def lint_snippet(tmp_path, source, check, *, filename="mod.py", tests_source=None):
    """Write ``source`` under ``tmp_path`` and run one check over it."""
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    tests_root = None
    if tests_source is not None:
        tests_root = tmp_path / "tests"
        tests_root.mkdir(exist_ok=True)
        (tests_root / "refs.py").write_text(
            textwrap.dedent(tests_source), encoding="utf-8"
        )
    report = run_lint([str(path)], select=[check], tests_root=tests_root)
    return report.violations


# ----------------------------------------------------------------------
# The registry mirrors repro.exec's
# ----------------------------------------------------------------------
class TestCheckRegistry:
    def test_all_shipped_checks_registered(self):
        assert set(checks()) >= {
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR006",
            "RPR007",
        }

    def test_by_check_is_case_insensitive(self):
        assert by_check("rpr002").id == "RPR002"
        assert by_check("RPR002") is by_check("rpr002")

    def test_unknown_check_fails_fast(self):
        with pytest.raises(KeyError, match="unknown check"):
            by_check("RPR999")

    def test_third_party_check_registers_like_shipped_ones(self):
        class LocalCheck(Check):
            id = "RPR901"
            name = "local"
            summary = "test-only"

            def run(self, ctx):
                yield ctx.violation(self.id, 1, "always fires")

        try:
            register_check(LocalCheck())
            assert by_check("rpr901").name == "local"
        finally:
            CHECKS.pop("RPR901", None)

    def test_bad_check_id_rejected(self):
        class Unnamed(Check):
            id = ""

        with pytest.raises(ValueError, match="check id"):
            register_check(Unnamed())


# ----------------------------------------------------------------------
# RPR001 — oracle pairing
# ----------------------------------------------------------------------
class TestOraclePairing:
    def test_orphan_oracle_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def frobnicate_reference(xs):
                return sorted(xs)
            """,
            "RPR001",
        )
        assert len(found) == 1 and "no vectorized twin" in found[0].message

    def test_untested_oracle_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def frobnicate(xs):
                return sorted(xs)

            def frobnicate_reference(xs):
                return sorted(xs)
            """,
            "RPR001",
            tests_source="def test_unrelated():\n    assert True\n",
        )
        assert len(found) == 1 and "never referenced" in found[0].message

    def test_paired_and_tested_oracle_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def frobnicate(xs):
                return sorted(xs)

            def frobnicate_reference(xs):
                return sorted(xs)
            """,
            "RPR001",
            tests_source="""
            def test_parity():
                from mod import frobnicate, frobnicate_reference
                assert frobnicate([2, 1]) == frobnicate_reference([2, 1])
            """,
        )
        assert found == []

    def test_multi_batch_twin_pairs_the_oracle(self, tmp_path):
        """``X_multi`` (the fused multi-batch kernel) counts as the twin of
        ``X_reference``; any other name does not."""
        found = lint_snippet(
            tmp_path,
            """
            class Net:
                def route_multi(self, xs, seg, num_segs):
                    return xs

                def route_reference(self, xs):
                    return xs

            class Other:
                def route_many(self, xs, seg, num_segs):
                    return xs

                def route_reference(self, xs):
                    return xs
            """,
            "RPR001",
            tests_source="def test_parity():\n    assert route_reference\n",
        )
        assert len(found) == 1 and "class Other" in found[0].message

    def test_private_oracles_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def _run_phase_reference(state):
                return state
            """,
            "RPR001",
        )
        assert found == []

    def test_noqa_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def frobnicate_reference(xs):  # repro: noqa[RPR001]
                return sorted(xs)
            """,
            "RPR001",
        )
        assert found == []


# ----------------------------------------------------------------------
# RPR002 — cached arrays read-only
# ----------------------------------------------------------------------
# Indented to match the snippet bodies so textwrap.dedent() strips both.
_CACHE_HEADER = """
            import numpy as np
            from repro.util.caches import register_cache

            _cache = {}
            register_cache("demo", lambda: {}, _cache.clear)

            def _frozen(arr):
                arr.setflags(write=False)
                return arr
"""


class TestCacheReadOnly:
    def test_unfrozen_compute_return_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _CACHE_HEADER
            + """
            def lookup(key):
                def compute():
                    return np.arange(4)
                return _cache.setdefault(key, compute())
            """,
            "RPR002",
        )
        assert len(found) == 1 and "not marked read-only" in found[0].message

    def test_frozen_compute_return_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _CACHE_HEADER
            + """
            def lookup(key):
                def compute():
                    out = np.arange(4)
                    return (_frozen(out), int(out.sum()))
                return _cache.setdefault(key, compute())
            """,
            "RPR002",
        )
        assert found == []

    def test_unfrozen_direct_insertion_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _CACHE_HEADER
            + """
            def fill(key):
                _cache[key] = np.arange(4)
            """,
            "RPR002",
        )
        assert len(found) == 1 and "read-only" in found[0].message

    def test_parameter_forwarding_insertion_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _CACHE_HEADER
            + """
            def put(key, profile):
                _cache[key] = profile
            """,
            "RPR002",
        )
        assert found == []

    def test_module_without_register_cache_out_of_scope(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            _cache = {}

            def fill(key):
                _cache[key] = np.arange(4)
            """,
            "RPR002",
        )
        assert found == []

    def test_noqa_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _CACHE_HEADER
            + """
            def lookup(key):
                def compute():
                    return np.arange(4)  # repro: noqa[RPR002]
                return _cache.setdefault(key, compute())
            """,
            "RPR002",
        )
        assert found == []

    def test_unfrozen_lru_put_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _LRU_HEADER
            + """
            def fill(key):
                return _CACHE.put(key, np.arange(4))
            """,
            "RPR002",
        )
        assert len(found) == 1 and "insertion into '_CACHE'" in found[0].message

    def test_frozen_lru_insertions_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _LRU_HEADER
            + """
            def _build(n):
                out = np.arange(n)
                out.setflags(write=False)
                return out

            def fill(key):
                return _CACHE.put(key, _build(4))

            def forward(key, profile):
                return _CACHE.put(key, profile)

            def adopt(key):
                return _CACHE.seed(key, np.arange(4))  # seed freezes itself
            """,
            "RPR002",
        )
        assert found == []

    def test_lru_module_is_in_scope(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _LRU_HEADER
            + """
            def _cached(cache, key, compute):
                value = cache.get(key)
                return value if value is not None else cache.put(key, compute())

            def lookup(key):
                def compute():
                    return np.arange(4)
                return _cached(_CACHE, key, compute)
            """,
            "RPR002",
        )
        assert len(found) == 1 and "not marked read-only" in found[0].message


_LRU_HEADER = """
            import numpy as np
            from repro.util.caches import LRU

            _CACHE = LRU("demo", 4)
"""


# ----------------------------------------------------------------------
# RPR003 — seeded RNG only
# ----------------------------------------------------------------------
class TestSeededRng:
    def test_legacy_global_rng_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def jitter(n):
                return np.random.rand(n)
            """,
            "RPR003",
        )
        assert len(found) == 1 and "np.random.rand" in found[0].message

    def test_unseeded_default_rng_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def jitter(n):
                return np.random.default_rng().random(n)
            """,
            "RPR003",
        )
        assert len(found) == 1 and "without a seed" in found[0].message

    def test_stdlib_random_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import random

            def pick(xs):
                return random.choice(xs)
            """,
            "RPR003",
        )
        assert len(found) == 1 and "random.choice" in found[0].message

    def test_seeded_rng_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def jitter(n, seed):
                return np.random.default_rng((0xABC, seed)).random(n)
            """,
            "RPR003",
        )
        assert found == []

    def test_test_files_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def jitter(n):
                return np.random.rand(n)
            """,
            "RPR003",
            filename="test_mod.py",
        )
        assert found == []

    def test_noqa_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def jitter(n):
                return np.random.rand(n)  # repro: noqa[RPR003]
            """,
            "RPR003",
        )
        assert found == []


# ----------------------------------------------------------------------
# RPR004 — lock discipline
# ----------------------------------------------------------------------
_LOCKED_HEADER = """
            import threading

            _cache_lock = threading.Lock()
            _cache = {}
"""


class TestLockDiscipline:
    def test_unlocked_mutation_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _LOCKED_HEADER
            + """
            def put(key, value):
                _cache[key] = value
            """,
            "RPR004",
        )
        assert len(found) == 1 and "unlocked subscript assignment" in found[0].message

    def test_unlocked_method_mutation_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _LOCKED_HEADER
            + """
            def reset():
                _cache.clear()
            """,
            "RPR004",
        )
        assert len(found) == 1 and ".clear() call" in found[0].message

    def test_locked_mutation_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _LOCKED_HEADER
            + """
            def put(key, value):
                with _cache_lock:
                    _cache[key] = value

            def reset():
                with _cache_lock:
                    _cache.clear()
            """,
            "RPR004",
        )
        assert found == []

    def test_import_time_seeding_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _LOCKED_HEADER
            + """
            _cache["seed"] = 1
            """,
            "RPR004",
        )
        assert found == []

    def test_exec_package_is_path_scoped(self, tmp_path):
        # No module-level lock at all: out of content scope, but an
        # exec/ path pulls the module in and the mutation is unlocked.
        found = lint_snippet(
            tmp_path,
            """
            _registry = {}

            def register(name, factory):
                _registry[name] = factory
            """,
            "RPR004",
            filename="exec/registry.py",
        )
        assert len(found) == 1 and "unlocked" in found[0].message

    def test_noqa_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _LOCKED_HEADER
            + """
            def put(key, value):
                _cache[key] = value  # repro: noqa[RPR004]
            """,
            "RPR004",
        )
        assert found == []

    def test_bare_dict_cache_in_registering_module_flagged(self, tmp_path):
        # Locked, so the mutation rule is satisfied: the dict itself is
        # the violation once the module registers a cache.
        found = lint_snippet(
            tmp_path,
            """
            import threading
            from collections import OrderedDict
            from repro.util.caches import register_cache

            _cache_lock = threading.Lock()
            _cache = OrderedDict()
            register_cache("demo", lambda: {}, _cache.clear)

            def put(key, value):
                with _cache_lock:
                    _cache[key] = value
            """,
            "RPR004",
        )
        assert len(found) == 1 and "make it a repro.util.caches.LRU" in found[0].message

    def test_lru_private_state_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _LRU_HEADER
            + """
            def reset():
                _CACHE._data.clear()
            """,
            "RPR004",
        )
        assert len(found) == 1 and "_CACHE._data" in found[0].message

    def test_lru_public_methods_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _LRU_HEADER
            + """
            _OPTIONS = {"fast": True}

            def lookup(key, value):
                if _CACHE.get(key) is None:
                    _CACHE.seed(key, value)
                return _CACHE.get(key)

            def reset():
                _CACHE.clear()
                _CACHE.maxsize = 8
            """,
            "RPR004",
        )
        assert found == []


# ----------------------------------------------------------------------
# RPR005 — registry completeness
# ----------------------------------------------------------------------
class TestRegistryCompleteness:
    def test_unregistered_spec_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.api import AlgorithmSpec

            SPEC = AlgorithmSpec(name="ghost", build=None, check=None)
            """,
            "RPR005",
        )
        assert len(found) == 1 and "never passed to" in found[0].message

    def test_registered_spec_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.api import AlgorithmSpec, register

            register(AlgorithmSpec(name="real", build=None, check=None))

            SPEC = AlgorithmSpec(name="indirect", build=None, check=None)
            register(SPEC)
            """,
            "RPR005",
        )
        assert found == []

    def test_unregistered_backend_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.exec import Substrate

            class GhostSubstrate(Substrate):
                name = "ghost"
            """,
            "RPR005",
        )
        assert len(found) == 1 and "never registered" in found[0].message

    def test_registered_backend_and_registry_dict_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.exec import Substrate, register_executor
            from repro.sim.arbiter import Arbiter

            class RealSubstrate(Substrate):
                name = "real"

            register_executor("real", RealSubstrate)

            class NewArbiter(Arbiter):
                name = "new"

            ARBITERS = {"new": NewArbiter}
            """,
            "RPR005",
        )
        assert found == []

    def test_stale_all_entry_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            __all__ = ["present", "absent"]

            def present():
                return 1
            """,
            "RPR005",
        )
        assert len(found) == 1 and "'absent'" in found[0].message

    def test_init_export_drift_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            __all__ = ["listed"]

            def listed():
                return 1

            def forgotten():
                return 2
            """,
            "RPR005",
            filename="pkg/__init__.py",
        )
        assert len(found) == 1 and "'forgotten'" in found[0].message

    def test_noqa_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.exec import Substrate

            class GhostSubstrate(Substrate):  # repro: noqa[RPR005]
                name = "ghost"
            """,
            "RPR005",
        )
        assert found == []


# ----------------------------------------------------------------------
# RPR006 — engine parity
# ----------------------------------------------------------------------
class TestEngineParity:
    def test_signature_drift_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def fold(trace, p, clamp=True):
                return trace

            def fold_reference(trace, p):
                return trace
            """,
            "RPR006",
        )
        assert len(found) == 1 and "signature drift" in found[0].message

    def test_engine_selector_param_is_drift(self, tmp_path):
        # No parameter is exempt: an engine selector on the fast side is
        # a second production path the oracle pair does not cover.
        found = lint_snippet(
            tmp_path,
            """
            def simulate_trace(trace, topo, *, seed=0, engine=None):
                return trace

            def simulate_trace_reference(trace, topo, *, seed=0):
                return trace
            """,
            "RPR006",
        )
        assert len(found) == 1 and "['engine']" in found[0].message

    def test_simulate_twins_kwonly_drift_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def simulate_trace(trace, topo, *, seed=0, flits=1):
                return None

            def simulate_many(traces, topo, *, seed=0):
                return None
            """,
            "RPR006",
        )
        assert len(found) == 1 and "keyword-only surfaces differ" in found[0].message

    def test_noqa_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def fold(trace, p, clamp=True):  # repro: noqa[RPR006]
                return trace

            def fold_reference(trace, p):
                return trace
            """,
            "RPR006",
        )
        assert found == []


# ----------------------------------------------------------------------
# RPR007 — stage purity
# ----------------------------------------------------------------------
class TestStagePurity:
    def test_mutable_read_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.exec.dag import stage_kernel

            _OPTIONS = {"fast": True}

            @stage_kernel("demo")
            def _demo(trace):
                if _OPTIONS["fast"]:
                    return trace
                return None
            """,
            "RPR007",
        )
        assert len(found) == 1
        assert "module-level mutable state '_OPTIONS'" in found[0].message

    def test_global_declaration_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.exec.dag import stage_kernel

            _SEEN = []

            @stage_kernel("demo")
            def _demo(trace):
                global _SEEN
                _SEEN = []
                return trace
            """,
            "RPR007",
        )
        assert any("declares global _SEEN" in v.message for v in found)

    def test_pure_kernel_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.exec.dag import stage_kernel

            _OPTIONS = {"fast": True}
            LIMIT = 64

            @stage_kernel("demo")
            def _demo(trace, topo):
                from repro.networks import route_trace

                if trace.num_supersteps <= LIMIT:
                    return route_trace(trace, topo)
                local = {"slow": True}
                return (route_trace(trace, topo), local)
            """,
            "RPR007",
        )
        assert found == []

    def test_registered_cache_read_allowed(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.exec.dag import stage_kernel
            from repro.util.caches import register_cache

            _route_cache = {}
            register_cache("demo", lambda: {}, lambda: None)

            @stage_kernel("demo")
            def _demo(key):
                return _route_cache.get(key)
            """,
            "RPR007",
        )
        assert found == []

    def test_cache_named_dict_without_registration_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.exec.dag import stage_kernel

            _route_cache = {}

            @stage_kernel("demo")
            def _demo(key):
                return _route_cache.get(key)
            """,
            "RPR007",
        )
        assert len(found) == 1

    def test_undecorated_function_out_of_scope(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            _OPTIONS = {"fast": True}

            def helper(trace):
                return _OPTIONS["fast"]
            """,
            "RPR007",
        )
        assert found == []

    def test_noqa_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.exec.dag import stage_kernel

            _OPTIONS = {"fast": True}

            @stage_kernel("demo")
            def _demo(trace):
                return _OPTIONS["fast"]  # repro: noqa[RPR007]
            """,
            "RPR007",
        )
        assert found == []


# ----------------------------------------------------------------------
# Runner mechanics
# ----------------------------------------------------------------------
class TestRunner:
    def test_collect_files_dedupes_and_recurses(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("y = 2\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text("z = 3\n")
        files = collect_files([str(tmp_path), str(tmp_path / "a.py")])
        names = sorted(p.name for p in files)
        assert names == ["a.py", "b.py"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint(["/nonexistent/abc"])

    def test_unknown_select_raises(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        with pytest.raises(KeyError, match="RPR999"):
            run_lint([str(tmp_path)], select=["RPR999"])

    def test_syntax_error_becomes_parse_violation(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_lint([str(tmp_path)])
        assert not report.ok
        assert [v.check for v in report.violations] == ["PARSE"]

    def test_blanket_noqa_suppresses_any_check(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def jitter(n):
                return np.random.rand(n)  # repro: noqa
            """,
            "RPR003",
        )
        assert found == []

    def test_violation_format(self):
        v = Violation(check="RPR003", path="m.py", line=7, message="boom")
        assert v.format() == "m.py:7: RPR003 boom"
        assert v.as_dict()["line"] == 7


# ----------------------------------------------------------------------
# CLI + meta: the repository passes its own linter
# ----------------------------------------------------------------------
def _run_cli(*argv, cwd=REPO):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestCliAndMeta:
    def test_src_is_clean_in_process(self):
        report = run_lint([str(SRC)])
        assert report.ok, "\n".join(v.format() for v in report.violations)
        assert len(report.checks) >= 6
        assert report.files > 50

    def test_cli_src_exits_zero(self):
        proc = _run_cli("src", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert len(payload["checks"]) >= 6
        assert payload["violations"] == []

    def test_cli_reports_violations_with_exit_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n\ndef f():\n    return np.random.rand(1)\n"
        )
        proc = _run_cli(str(bad), cwd=tmp_path)
        assert proc.returncode == 1
        assert "RPR003" in proc.stdout and "FAILED" in proc.stdout

    def test_cli_unknown_check_exits_two(self):
        proc = _run_cli("src", "--select", "RPR999")
        assert proc.returncode == 2
        assert "unknown check" in proc.stderr

    def test_cli_list_names_all_checks(self):
        proc = _run_cli("--list")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) >= 6
        assert any(line.startswith("RPR001") for line in lines)
