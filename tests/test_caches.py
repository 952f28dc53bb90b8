"""repro.util.caches.LRU: counters, probes, seeding, eviction, threads."""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from repro.util import caches, sanitize
from repro.util.caches import LRU, cache_stats, clear_caches


@pytest.fixture(autouse=True)
def _private_registry(monkeypatch):
    """Keep the test LRUs out of the process-wide registry."""
    monkeypatch.setattr(caches, "_PROVIDERS", dict(caches._PROVIDERS))


def _frozen(n: int) -> np.ndarray:
    arr = np.arange(n)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class _Profile:
    cycles: np.ndarray
    edges: np.ndarray | None = None


class TestCounters:
    def test_get_counts_hits_and_misses(self):
        lru = LRU("t-get", 4)
        assert lru.get("a") is None
        value = lru.put("a", _frozen(3))
        assert lru.get("a") is value
        assert lru.stats() == {"hits": 1, "misses": 1, "evictions": 0}

    def test_peek_counts_nothing(self):
        lru = LRU("t-peek", 4)
        assert lru.peek("a") is None
        lru.put("a", _frozen(3))
        assert lru.peek("a") is not None
        assert lru.stats() == {"hits": 0, "misses": 0, "evictions": 0}

    def test_none_key_is_uncacheable(self):
        lru = LRU("t-none", 4)
        value = _frozen(2)
        assert lru.put(None, value) is value
        assert lru.seed(None, value) is value
        assert lru.get(None) is None and lru.peek(None) is None
        assert lru.stats() == {"hits": 0, "misses": 0, "evictions": 0}

    def test_registered_under_its_name(self):
        lru = LRU("t-registry", 4)
        lru.get("a")
        assert cache_stats()["t-registry"] == {"hits": 0, "misses": 1, "evictions": 0}
        clear_caches()
        assert lru.stats() == {"hits": 0, "misses": 0, "evictions": 0}


class TestEviction:
    def test_overflow_evicts_least_recent_and_clear_resets(self):
        lru = LRU("t-evict", 2)
        for key in "abc":
            lru.put(key, _frozen(1))
        assert lru.stats()["evictions"] == 1
        assert lru.peek("a") is None and lru.peek("c") is not None
        lru.get("b")  # b becomes most recent, so d evicts c
        lru.put("d", _frozen(1))
        assert lru.peek("c") is None and lru.peek("b") is not None
        assert lru.stats() == {"hits": 1, "misses": 0, "evictions": 2}
        lru.clear()
        assert lru.stats() == {"hits": 0, "misses": 0, "evictions": 0}
        assert all(lru.peek(key) is None for key in "abcd")

    def test_peek_refreshes_recency(self):
        lru = LRU("t-recency", 2)
        lru.put("a", _frozen(1))
        lru.put("b", _frozen(1))
        lru.peek("a")
        lru.put("c", _frozen(1))
        assert lru.peek("a") is not None and lru.peek("b") is None

    def test_local_shares_counters_not_entries(self):
        lru = LRU("t-local", 8)
        local = lru.local(1)
        local.put("x", _frozen(1))
        local.put("y", _frozen(1))
        assert local.get("y") is not None
        assert lru.peek("y") is None
        assert lru.stats() == {"hits": 1, "misses": 0, "evictions": 1}
        assert "t-local" in caches.registered_caches()
        lru.clear()
        assert local.stats() == {"hits": 0, "misses": 0, "evictions": 0}


class TestSeed:
    def test_seed_freezes_what_pickling_thawed(self):
        lru = LRU("t-seed", 4)
        worker = pickle.loads(pickle.dumps(_Profile(_frozen(4), _frozen(2))))
        assert worker.cycles.flags.writeable  # pickling drops the flag
        cached = lru.seed("k", worker)
        assert cached is worker
        assert not cached.cycles.flags.writeable
        assert not cached.edges.flags.writeable
        assert lru.stats() == {"hits": 0, "misses": 0, "evictions": 0}

    def test_seed_keeps_the_existing_entry(self):
        lru = LRU("t-seed-keep", 4)
        first = lru.put("k", _Profile(_frozen(4)))
        second = pickle.loads(pickle.dumps(first))
        assert lru.seed("k", second) is first
        assert lru.get("k") is first
        assert not second.cycles.flags.writeable  # frozen either way


class TestSanitized:
    def test_put_of_writeable_array_is_trapped(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        lru = LRU("t-trap", 4)
        with pytest.raises(sanitize.SanitizerError, match="t-trap"):
            lru.put("k", np.arange(3))
        assert lru.peek("k") is None

    def test_thread_hammer_records_no_violations(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitize.clear_sanitizer()
        lru = LRU("t-hammer", 16)
        value = _frozen(8)
        threads, rounds, keys = 8, 400, 40
        errors: list[BaseException] = []

        def hammer(tid: int) -> None:
            try:
                for i in range(rounds):
                    key = (tid * 7 + i) % keys
                    if lru.get(key) is None:
                        if i % 2:
                            lru.put(key, value)
                        else:
                            lru.seed(key, _Profile(np.arange(4)))
                    lru.peek((key + 1) % keys)
            except BaseException as err:  # surfaced by the assert below
                errors.append(err)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=hammer, args=(t,)) for t in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        stats = lru.stats()
        assert stats["hits"] + stats["misses"] == threads * rounds  # no lost update
        assert sum(lru.peek(k) is not None for k in range(keys)) <= 16
        sane = sanitize.sanitizer_stats()
        assert sane["violations"] == 0 and sane["lock_asserts"] > 0
        sanitize.clear_sanitizer()
