"""repro.util.caches: the LRU (counters, seeding, eviction, threads), the
Counters primitive and the registry both report to."""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from repro.util import caches, sanitize
from repro.util.caches import LRU, Counters, cache_stats, clear_caches


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
        assert lru.get("a") is None and lru.get("c") is not None
        lru.get("b")  # b becomes most recent, so d evicts c
        lru.put("d", _frozen(1))
        assert lru.get("c") is None and lru.get("b") is not None
        assert lru.stats() == {"hits": 3, "misses": 2, "evictions": 2}
        lru.clear()
        assert lru.stats() == {"hits": 0, "misses": 0, "evictions": 0}
        assert all(lru.get(key) is None for key in "abcd")
        assert lru.stats() == {"hits": 0, "misses": 4, "evictions": 0}

    def test_get_refreshes_recency(self):
        lru = LRU("t-recency", 2)
        lru.put("a", _frozen(1))
        lru.put("b", _frozen(1))
        lru.get("a")
        lru.put("c", _frozen(1))
        assert lru.get("a") is not None and lru.get("b") is None
        assert lru.stats() == {"hits": 2, "misses": 1, "evictions": 1}

    def test_local_shares_counters_not_entries(self):
        lru = LRU("t-local", 8)
        local = lru.local(1)
        local.put("x", _frozen(1))
        local.put("y", _frozen(1))
        assert local.get("y") is not None
        assert lru.stats() == {"hits": 1, "misses": 0, "evictions": 1}
        assert lru.get("y") is None  # the entry is local's alone
        assert local.stats() == {"hits": 1, "misses": 1, "evictions": 1}
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
        assert lru.get("k") is None
        assert lru.stats() == {"hits": 0, "misses": 1, "evictions": 0}

    def test_thread_hammer_records_no_violations(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitize.SANITIZER_COUNTERS.clear()
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
                    lru.get((key + 1) % keys)
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
        # Two lookups a round; no lost update.
        assert stats["hits"] + stats["misses"] == 2 * threads * rounds
        assert sum(lru.get(k) is not None for k in range(keys)) <= 16
        assert sanitize.SANITIZER_COUNTERS.stats()["violations"] == 0
        sanitize.SANITIZER_COUNTERS.clear()


def _hammer(threads: int, work) -> list:
    """Run ``work(tid)`` on ``threads`` threads with a tiny switch
    interval; returns what each call returned, in thread order."""
    results: list = [None] * threads

    def body(tid: int) -> None:
        results[tid] = work(tid)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=body, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    return results


class TestCountersPrimitive:
    def test_adds_from_eight_threads_sum_exactly(self):
        counts = Counters("t-add", "a", "b")
        threads, rounds = 8, 10_000

        def work(tid: int) -> None:
            for _ in range(rounds):
                counts.add(a=1, b=tid)

        _hammer(threads, work)
        assert counts.stats() == {
            "a": threads * rounds,
            "b": rounds * sum(range(threads)),
        }

    def test_tickets_have_no_gaps_or_repeats(self):
        counts = Counters("t-ticket", "calls")
        threads, rounds = 8, 2_000
        drawn = _hammer(
            threads, lambda tid: [counts.ticket("calls") for _ in range(rounds)]
        )
        tickets = sorted(t for batch in drawn for t in batch)
        assert tickets == list(range(threads * rounds))
        assert all(batch == sorted(batch) for batch in drawn)  # call order
        assert counts.stats() == {"calls": threads * rounds}

    def test_registered_clear_keeps_live_keys(self):
        flag = [1]
        counts = Counters("t-live", "n", live={"on": lambda: flag[0]})
        counts.add(n=3)
        assert cache_stats()["t-live"] == {"on": 1, "n": 3}
        flag[0] = 0
        clear_caches()
        assert counts.stats() == {"on": 0, "n": 0}


def test_simulate_many_counts_fused_runs_and_cycles():
    import repro
    from repro.api import run
    from repro.networks import by_name
    from repro.sim import simulate_many

    trace = run("fft", n=64).trace
    repro.clear_caches()
    profiles = simulate_many(
        [(trace, by_name(name, 8), None, "fifo") for name in ("ring", "hypercube")]
    )
    engine = repro.cache_stats()["sim_engine"]
    assert engine["fused_runs"] == 1
    # Every superstep of every cell starts at cycle 0 of the one loop,
    # which runs until the slowest one drains.
    assert engine["serve_cycles"] == max(int(p.cycles.max()) for p in profiles)
    repro.clear_caches()
    assert repro.cache_stats()["sim_engine"] == {"fused_runs": 0, "serve_cycles": 0}
