"""The library's counters: one :class:`LRU`, one :class:`Counters`, one registry.

The fold-kernel (:mod:`repro.machine.folding`), routed-profile
(:mod:`repro.networks.routing`) and simulation (:mod:`repro.sim.engine`)
memos are :class:`LRU` instances.  The result-store
(:mod:`repro.exec.store`), stage-graph (:mod:`repro.exec.dag`),
fast-engine (:mod:`repro.sim.fastpath`) and sanitizer
(:mod:`repro.util.sanitize`) tallies are :class:`Counters`.  Each one
registers its ``(stats, clear)`` pair here at import time, so one call
reads them all::

    >>> import repro
    >>> repro.cache_stats()                          # doctest: +SKIP
    {'dag': {...}, 'fold': {'hits': 12, 'misses': 3, 'evictions': 0},
     'route': {...}, 'sanitizer': {...}, 'sim': {...},
     'sim_engine': {...}, 'store': {...}}

``stats()`` is a dict of integers; ``clear()`` resets them (an LRU also
drops its entries).  :func:`cache_stats`/:func:`clear_caches` are
re-exported as ``repro.cache_stats``/``repro.clear_caches``.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = [
    "LRU",
    "Counters",
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
    the ``REPRO_SANITIZE`` hook :func:`repro.util.sanitize.guard_cached`,
    which requires each reachable array to be read-only.  Callers of
    :meth:`_insert` hold the lock; lint rule RPR004 checks that statically.
    Hits, misses and evictions are counted under the same lock, so a
    lookup takes one lock, not two.

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

    def get(self, key: Hashable) -> Any:
        """The cached value (now most recent), or ``None``; counts a hit
        or a miss."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self._counts["misses"] += 1
            else:
                self._data.move_to_end(key)
                self._counts["hits"] += 1
            return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert (or replace) ``value``, evicting the least recent
        entry beyond ``maxsize``; returns ``value``."""
        sanitize.guard_cached(value, self.name)
        with self._lock:
            self._insert(key, value)
        return value

    def seed(self, key: Hashable, value: Any) -> Any:
        """Insert a value computed elsewhere unless ``key`` is present.

        Every reachable array is frozen first, so the value may come
        from code the cache cannot vouch for (a batch kernel, a worker
        whose pickling dropped numpy's read-only flag).
        Returns the entry that ends up cached (an existing one wins; the
        values are bit-identical by construction).  Uncounted.
        """
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


class Counters:
    """Named integer counters under one lock, registered like an :class:`LRU`.

    For tallies kept per run, per fused loop, per store batch or per
    sanitizer hook, never per lookup or per cell.  ``live`` maps extra
    keys to zero-argument callables that :meth:`stats` reads each time
    (a flag, not a count; :meth:`clear` leaves it alone).
    """

    def __init__(
        self, name: str, *keys: str, live: dict[str, Callable[[], int]] | None = None
    ) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(keys, 0)
        self._live = live or {}
        register_cache(name, self.stats, self.clear)

    def add(self, **deltas: int) -> None:
        """Add each delta to its counter in one locked step."""
        with self._lock:
            for key, delta in deltas.items():
                self._counts[key] += delta

    def ticket(self, key: str) -> int:
        """Increment ``key`` and return its old value: a sampling gate's
        draw, in call order, with no gap or repeat across threads."""
        with self._lock:
            n = self._counts[key]
            self._counts[key] = n + 1
        return n

    def stats(self) -> dict[str, int]:
        """The live keys, then every counter since the last :meth:`clear`."""
        live = {key: read() for key, read in self._live.items()}
        with self._lock:
            return {**live, **self._counts}

    def clear(self) -> None:
        """Reset every counter to zero."""
        with self._lock:
            for key in self._counts:
                self._counts[key] = 0


# Registers the "sanitizer" provider unconditionally (its hooks no-op
# unless REPRO_SANITIZE=1), so cache_stats() always carries the entry.
# Imported at the bottom: sanitize needs Counters from this module.
from repro.util import sanitize  # noqa: E402
