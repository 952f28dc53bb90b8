"""The library's memoisation caches: one :class:`LRU` type and a registry.

The fold-kernel (:mod:`repro.machine.folding`), routed-profile
(:mod:`repro.networks.routing`) and simulation (:mod:`repro.sim.engine`)
memos are :class:`LRU` instances; they, the persistent result store
(:mod:`repro.exec.store`) and the stage-graph counters
(:mod:`repro.exec.dag`) register a ``(stats, clear)`` pair here at
import time, so one call aggregates them all::

    >>> import repro
    >>> repro.cache_stats()                          # doctest: +SKIP
    {'fold': {'hits': 12, 'misses': 3, 'evictions': 0},
     'route': {...}, 'sim': {...}, 'store': {...}}

The per-cache ``stats()`` contract is a dict of integer counters with at
least ``hits``/``misses``/``evictions`` keys; ``clear()`` drops the
cached values *and* resets the counters (each module's documented
behaviour).  :func:`cache_stats`/:func:`clear_caches` are re-exported as
``repro.cache_stats``/``repro.clear_caches``.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = [
    "LRU",
    "register_cache",
    "cache_stats",
    "clear_caches",
    "registered_caches",
]

_PROVIDERS: dict[str, tuple[Callable[[], dict], Callable[[], None]]] = {}


def register_cache(
    name: str, stats: Callable[[], dict], clear: Callable[[], None]
) -> None:
    """Register (or replace) a named cache's ``(stats, clear)`` hooks."""
    _PROVIDERS[name] = (stats, clear)


def registered_caches() -> tuple[str, ...]:
    """Sorted names of every registered cache."""
    return tuple(sorted(_PROVIDERS))


def cache_stats() -> dict[str, dict]:
    """Aggregate counters of every registered cache, keyed by name."""
    return {name: stats() for name, (stats, _) in sorted(_PROVIDERS.items())}


def clear_caches() -> None:
    """Clear every registered cache and reset its counters."""
    for _, clear in _PROVIDERS.values():
        clear()


class LRU:
    """A thread-safe, counted least-recently-used memo.

    Plan executors fold, route and simulate from many threads, so the
    lock guards only dict lookups and insertions, never the work that
    fills an entry: two threads racing on one key may both compute, the
    values are identical and the last write wins.  Every insertion runs
    the ``REPRO_SANITIZE`` hooks (:func:`repro.util.sanitize.guard_cached`
    requires each reachable array to be read-only;
    :func:`~repro.util.sanitize.assert_locked` checks the lock).

    A ``None`` key marks an uncacheable value (a foreign trace-like
    object without a ``cache_token``): lookups return ``None`` without
    counting, and inserts hand the value back without storing it.

    The instance registers its :meth:`stats`/:meth:`clear` under
    ``name`` with :func:`cache_stats`/:func:`clear_caches`.
    """

    def __init__(self, name: str, maxsize: int) -> None:
        self.name = name
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._counts = {"hits": 0, "misses": 0, "evictions": 0}
        register_cache(name, self.stats, self.clear)

    def local(self, maxsize: int) -> "LRU":
        """An unregistered LRU sharing this one's lock and counters.

        For memos that live on a data object and die with it (the fold
        module's per-trace caches); :meth:`clear` on this instance
        resets the shared counters but cannot reach their entries.
        """
        child = copy.copy(self)
        child.maxsize = maxsize
        child._data = OrderedDict()
        return child

    def get(self, key: Hashable | None) -> Any:
        """The cached value (now most recent), or ``None``; counts a hit
        or a miss."""
        if key is None:
            return None
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self._counts["misses"] += 1
            else:
                self._data.move_to_end(key)
                self._counts["hits"] += 1
            return value

    def peek(self, key: Hashable | None) -> Any:
        """Like :meth:`get` but uncounted: a scheduler probe, so that
        the eventual lookup, not the probe, is what the counters record."""
        if key is None:
            return None
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: Hashable | None, value: Any) -> Any:
        """Insert (or replace) ``value``, evicting the least recent
        entry beyond ``maxsize``; returns ``value``."""
        if key is None:
            return value
        sanitize.guard_cached(value, self.name)
        with self._lock:
            self._insert(key, value)
        return value

    def seed(self, key: Hashable | None, value: Any) -> Any:
        """Insert a value computed elsewhere unless ``key`` is present.

        The parent-side hook for worker results: pickling drops numpy's
        read-only flag, so every reachable array is re-frozen first.
        Returns the entry that ends up cached (an existing one wins; the
        values are bit-identical by construction).  Uncounted.
        """
        if key is None:
            return value
        for arr in sanitize.reachable_arrays(value):
            arr.setflags(write=False)
        sanitize.guard_cached(value, self.name)
        with self._lock:
            cached = self._data.get(key)
            if cached is not None:
                self._data.move_to_end(key)
                return cached
            self._insert(key, value)
        return value

    def _insert(self, key: Hashable, value: Any) -> None:
        sanitize.assert_locked(self._lock, f"{self.name} cache insert")
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self._counts["evictions"] += 1

    def stats(self) -> dict[str, int]:
        """``hits``/``misses``/``evictions`` since the last :meth:`clear`."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            for name in self._counts:
                self._counts[name] = 0


# Registers the "sanitizer" provider unconditionally (its hooks no-op
# unless REPRO_SANITIZE=1), so cache_stats() always carries the entry.
# Imported at the bottom: sanitize needs register_cache from this module.
from repro.util import sanitize  # noqa: E402
