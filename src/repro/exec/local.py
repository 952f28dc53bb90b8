"""The in-process and fork executors: where a plan's stage waves run.

:class:`Substrate` itself (``serial``) runs waves in-line, landing
artifacts in the in-process LRUs; :class:`ThreadSubstrate` (``thread``)
maps cold nodes over a thread pool sharing those LRUs;
:class:`ProcessSubstrate` (``process``) forks a pool per wave whose
workers inherit the warm LRUs copy-on-write and pickle artifacts back
for parent-side seeding.  Without ``fork`` it degrades to threads with a
:class:`RuntimeWarning` and says so in the frame metadata.  Substrates
only choose where a node runs, so all produce bit-identical rows.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable

from repro.exec.dag import FUSE_MAX_SUPERSTEPS, _route_stage
from repro.exec.dag import _sim_batch_stage, _sim_stage
from repro.exec.registry import register_executor

__all__ = ["Substrate", "ThreadSubstrate", "ProcessSubstrate"]


def _seed_routes(cold: list, profiles: list) -> None:
    from repro.networks import seed_route_cache

    for (_rkey, (trace, topo, policy)), profile in zip(cold, profiles):
        seed_route_cache(trace, topo, policy, profile)


def _seed_sims(cold: list, profiles: list) -> None:
    from repro.sim.engine import seed_sim_cache

    for (_sk, node), profile in zip(cold, profiles):
        seed_sim_cache(*node, profile)


class Substrate:
    """How a plan run executes its waves of cold stage nodes.

    The base class is the ``serial`` executor: waves run in-line.
    Subclasses override :meth:`run_routes`/:meth:`run_sims` (and
    :meth:`open` when they can degrade).  ``cold`` wave entries are
    ``(node_key, node_args)`` pairs from the stage graph.
    """

    name = "serial"
    #: Pool size of one run: ``max_workers``, else min(8, cells, cores).
    workers = 1

    def open(
        self, runtime: Any, indices: list[int], max_workers: int | None, meta: dict
    ) -> "Substrate":
        """The substrate that runs one plan's waves, recording
        ``executor_effective`` (and any ``executor_downgrade``) in
        ``meta``.  Per-run state lives on the returned copy."""
        run = copy.copy(self)
        run.workers = (
            min(8, max(1, len(indices)), os.cpu_count() or 1)
            if max_workers is None
            else max(1, max_workers)
        )
        meta["executor_effective"] = self.name
        return run

    def run_routes(self, cold: list) -> None:
        for _rkey, (trace, topo, policy) in cold:
            _route_stage(trace, topo, policy)

    def run_sims(self, cold: list) -> None:
        _sim_batch_stage([node for _sk, node in cold], FUSE_MAX_SUPERSTEPS)

    def close(self) -> None:
        """Release per-run resources (called once the waves are done)."""


class ThreadSubstrate(Substrate):
    """Map cold nodes over a thread pool sharing the in-process LRUs.

    Fused sim batches stay on the calling thread (the fused kernel is
    already one whole-wave pass); the long-superstep leftovers fan out.
    """

    name = "thread"

    def run_routes(self, cold: list) -> None:
        if not cold:
            return
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            list(pool.map(lambda c: _route_stage(*c[1]), cold))

    def run_sims(self, cold: list) -> None:
        if not cold:
            return
        fused = [c for c in cold if c[1][0].num_supersteps <= FUSE_MAX_SUPERSTEPS]
        rest = [c for c in cold if c[1][0].num_supersteps > FUSE_MAX_SUPERSTEPS]
        if rest:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                list(pool.map(lambda c: _sim_stage(*c[1]), rest))
        if fused:
            _sim_batch_stage([node for _sk, node in fused], FUSE_MAX_SUPERSTEPS)


#: Wave specs the forked workers inherit copy-on-write (set around each
#: pool); the lock serialises concurrent process-executor waves.
_FORK_SPECS: Any = None
_fork_lock = threading.Lock()


def _fork_route_one(j: int) -> Any:
    trace, topo, policy = _FORK_SPECS[j]
    return _route_stage(trace, topo, policy)


def _fork_sim_chunk(bounds: tuple[int, int]) -> list:
    lo, hi = bounds
    return _sim_batch_stage(_FORK_SPECS[lo:hi], FUSE_MAX_SUPERSTEPS)


class ProcessSubstrate(Substrate):
    """Fork a pool per wave; workers inherit prior waves' LRUs
    copy-on-write and pickle artifacts back for parent-side seeding."""

    name = "process"

    def open(
        self, runtime: Any, indices: list[int], max_workers: int | None, meta: dict
    ) -> Substrate:
        if "fork" in multiprocessing.get_all_start_methods():
            return super().open(runtime, indices, max_workers, meta)
        warnings.warn(
            "fork start method unavailable; running waves on threads",
            RuntimeWarning,
            stacklevel=4,
        )
        meta["executor_downgrade"] = "fork start method unavailable"
        return ThreadSubstrate().open(runtime, indices, max_workers, meta)

    def _map(self, fn: Callable, specs: list, args: list) -> list:
        global _FORK_SPECS
        ctx = multiprocessing.get_context("fork")
        with _fork_lock:
            _FORK_SPECS = specs
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, max(1, len(args))),
                    mp_context=ctx,
                ) as pool:
                    return list(pool.map(fn, args))
            finally:
                _FORK_SPECS = None

    def run_routes(self, cold: list) -> None:
        if cold:
            specs = [node for _rkey, node in cold]
            profiles = self._map(_fork_route_one, specs, list(range(len(cold))))
            _seed_routes(cold, profiles)

    def run_sims(self, cold: list) -> None:
        if cold:
            # One contiguous shard per worker keeps sibling fusion intact.
            step = -(-len(cold) // self.workers)
            bounds = [(lo, lo + step) for lo in range(0, len(cold), step)]
            shards = self._map(_fork_sim_chunk, [node for _sk, node in cold], bounds)
            _seed_sims(cold, [p for shard in shards for p in shard])


register_executor("serial", Substrate)
register_executor("thread", ThreadSubstrate)
register_executor("process", ProcessSubstrate)
