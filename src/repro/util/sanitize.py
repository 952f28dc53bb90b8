"""Runtime sanitizer: ``REPRO_SANITIZE=1`` traps what the AST cannot see.

The static pass (:mod:`repro.lint`) proves the *code shape* follows the
cache/determinism discipline; this module verifies the *running values*
do.  With ``REPRO_SANITIZE=1`` in the environment:

* every value entering a shared LRU (fold, route, sim) is walked and
  each reachable ``ndarray`` must already be read-only — a writeable
  array raises :class:`SanitizerError` at the insertion site instead of
  corrupting some later lookup (:func:`guard_cached`);
* cache mutation sites assert that their guarding lock is actually held
  (:func:`assert_locked`);
* a sampled fraction of fast-engine simulations (every
  ``REPRO_SANITIZE_SAMPLE``-th, default 4, counter-based and therefore
  deterministic) is re-run through the reference cycle loop and compared
  bit-for-bit (:func:`should_crosscheck` / :func:`check_engine_parity`).

The mode is an always-importable no-op when the variable is unset: every
hook first consults :func:`enabled`, which reads the environment live so
tests can flip it per-case.  Counters aggregate under the ``sanitizer``
key of :func:`repro.cache_stats` and reset with ``repro.clear_caches()``.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from typing import Any

import numpy as np

from repro.util.caches import register_cache

__all__ = [
    "SanitizerError",
    "enabled",
    "sample_every",
    "guard_cached",
    "reachable_arrays",
    "assert_locked",
    "should_crosscheck",
    "should_spotcheck",
    "check_engine_parity",
    "check_row_parity",
    "sanitizer_stats",
    "clear_sanitizer",
]

_TRUTHY = {"1", "true", "yes", "on"}

_counter_lock = threading.Lock()
_arrays_checked = 0
_lock_asserts = 0
_engine_checks = 0
_crosscheck_calls = 0
_spotcheck_calls = 0
_row_checks = 0
_violations = 0


class SanitizerError(AssertionError):
    """A runtime violation of the cache/determinism discipline."""


def enabled() -> bool:
    """Is sanitize mode on?  Read live so tests can monkeypatch the env."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


def sample_every() -> int:
    """Cross-check every N-th fast-engine call (``REPRO_SANITIZE_SAMPLE``)."""
    raw = os.environ.get("REPRO_SANITIZE_SAMPLE", "4")
    try:
        return max(1, int(raw))
    except ValueError:
        return 4


def _record_violation(message: str) -> None:
    global _violations
    with _counter_lock:
        _violations += 1
    raise SanitizerError(message)


def reachable_arrays(value: Any, depth: int = 0):
    """Every ``ndarray`` reachable through containers and dataclasses."""
    if depth > 4:  # cached values are shallow; don't chase object graphs
        return
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from reachable_arrays(item, depth + 1)
    elif isinstance(value, dict):
        for item in value.values():
            yield from reachable_arrays(item, depth + 1)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from reachable_arrays(getattr(value, f.name), depth + 1)


def guard_cached(value: Any, where: str = "cache") -> Any:
    """Trap a writeable array on its way into a shared cache.

    Walks ``value`` (tuples/lists/dicts/dataclasses, e.g. a
    ``RoutedProfile``) and raises :class:`SanitizerError` for the first
    reachable ``ndarray`` still writeable — the exact corruption the
    ``_frozen``/``setflags(write=False)`` convention (and lint's RPR002)
    exists to prevent.  Returns ``value`` unchanged so call sites can
    wrap in-line.  No-op when sanitize mode is off.
    """
    if not enabled():
        return value
    global _arrays_checked
    checked = 0
    for arr in reachable_arrays(value):
        checked += 1
        if arr.flags.writeable:
            with _counter_lock:
                _arrays_checked += checked
            _record_violation(
                f"sanitizer[{where}]: a writeable ndarray "
                f"(shape {arr.shape}, dtype {arr.dtype}) is entering a "
                "shared cache — freeze it with setflags(write=False) "
                "before insertion"
            )
    with _counter_lock:
        _arrays_checked += checked
    return value


def _lock_held(lock: Any) -> bool:
    owned = getattr(lock, "_is_owned", None)  # RLock: held by THIS thread
    if owned is not None:
        return bool(owned())
    locked = getattr(lock, "locked", None)  # Lock: held by someone
    if locked is not None:
        return bool(locked())
    return True  # unknown lock type: nothing to assert


def assert_locked(lock: Any, what: str = "cache mutation") -> None:
    """Assert ``lock`` is held at a shared-cache mutation site.

    ``RLock``\\ s are checked for ownership by the calling thread; plain
    ``Lock``\\ s can only be checked for being held at all.  Raises
    :class:`SanitizerError` on an unheld lock (lint's RPR004, enforced
    at runtime).  No-op when sanitize mode is off.
    """
    if not enabled():
        return
    global _lock_asserts
    with _counter_lock:
        _lock_asserts += 1
    if not _lock_held(lock):
        _record_violation(
            f"sanitizer[{what}]: shared cache mutated without holding "
            "its lock — wrap the mutation in `with <lock>:`"
        )


def should_crosscheck() -> bool:
    """Deterministic sampling gate for the engine cross-check.

    Counts every candidate call (so the decision depends only on call
    order, never on wall clock or ambient randomness) and elects the
    first and every :func:`sample_every`-th one while sanitize mode is
    on.
    """
    if not enabled():
        return False
    global _crosscheck_calls
    with _counter_lock:
        n = _crosscheck_calls
        _crosscheck_calls += 1
    return n % sample_every() == 0


def should_spotcheck() -> bool:
    """Deterministic sampling gate for whole-row cross-checks.

    The row-level sibling of :func:`should_crosscheck`, with its own
    counter: DAG-scheduled cell assembly and result-store hits sample
    through this gate, so engine cross-check cadence and row spot-check
    cadence never perturb each other.
    """
    if not enabled():
        return False
    global _spotcheck_calls
    with _counter_lock:
        n = _spotcheck_calls
        _spotcheck_calls += 1
    return n % sample_every() == 0


def _same_value(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) and isinstance(b, float):
        if np.isnan(a) and np.isnan(b):
            return True
    return bool(a == b)


def check_row_parity(row: tuple, reference: tuple, where: str = "row") -> None:
    """Require two result rows to agree value for value.

    The shared comparator behind the DAG scheduler's sampled
    fresh-recompute cross-check and the result store's hit spot-check:
    every cell row is a pure function of its declaration, so a cached or
    DAG-assembled row must equal an independent recompute *exactly*
    (``NaN`` pairs match; an int and its float twin compare equal, which
    absorbs the store's JSON round-trip).  Raises
    :class:`SanitizerError` on the first differing column.
    """
    global _row_checks
    with _counter_lock:
        _row_checks += 1
    if len(row) != len(reference):
        _record_violation(
            f"sanitizer[{where}]: row has {len(row)} columns, "
            f"reference recompute has {len(reference)}"
        )
    for j, (a, b) in enumerate(zip(row, reference)):
        if not _same_value(a, b):
            _record_violation(
                f"sanitizer[{where}]: column {j} diverges from the "
                f"reference recompute ({a!r} != {b!r})"
            )


def check_engine_parity(
    fast: tuple[np.ndarray, np.ndarray, np.ndarray],
    reference: tuple[np.ndarray, np.ndarray, np.ndarray],
    where: str = "simulate_trace",
) -> None:
    """Compare ``(cycles, max_queue, edge_flits)`` of the two engines.

    Raises :class:`SanitizerError` on the first differing column — the
    runtime counterpart of the fast/reference property tests, applied to
    the workload actually being simulated.
    """
    global _engine_checks
    with _counter_lock:
        _engine_checks += 1
    names = ("cycles", "max_queue", "edge_flits")
    for name, a, b in zip(names, fast, reference):
        if not np.array_equal(a, b):
            _record_violation(
                f"sanitizer[{where}]: fast engine diverges from the "
                f"reference cycle loop on {name} "
                f"(fast={np.asarray(a).tolist()}, "
                f"reference={np.asarray(b).tolist()})"
            )


def sanitizer_stats() -> dict[str, int]:
    """Counters of every sanitizer hook (the ``sanitizer`` entry of
    :func:`repro.cache_stats`); ``enabled`` reflects the live env flag."""
    with _counter_lock:
        return {
            "enabled": int(enabled()),
            "arrays_checked": _arrays_checked,
            "lock_asserts": _lock_asserts,
            "engine_checks": _engine_checks,
            "row_checks": _row_checks,
            "violations": _violations,
        }


def clear_sanitizer() -> None:
    """Reset the sanitizer counters (wired into ``repro.clear_caches``)."""
    global _arrays_checked, _lock_asserts, _engine_checks
    global _crosscheck_calls, _spotcheck_calls, _row_checks, _violations
    with _counter_lock:
        _arrays_checked = 0
        _lock_asserts = 0
        _engine_checks = 0
        _crosscheck_calls = 0
        _spotcheck_calls = 0
        _row_checks = 0
        _violations = 0


register_cache("sanitizer", sanitizer_stats, clear_sanitizer)
