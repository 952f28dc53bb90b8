"""The ``shm`` executor: stage waves over a persistent shared-memory pool.

One worker pool per process, created on first use and reused by every
run (workers keep their imports and LRUs).  Every prepared source's
``int64`` trace columns ship once, zero-copy, in a single
``multiprocessing.shared_memory`` block that workers map as read-only
views; sim shards carry their nodes' route profiles, so workers never
re-route.

Degradation is recorded, never silent: on a single-CPU host, for tiny
plans, or when the plan cannot ship (a foreign trace-like source, an
unpicklable routing policy or params), waves run in-line and the frame
metadata says ``executor_effective: "serial"`` plus the reason.  A pool that
fails mid-run (a killed worker) is shut down, the remaining waves finish
in-line with a :class:`RuntimeWarning`, and the next run starts a fresh
pool.  Rows are bit-identical either way.
"""

from __future__ import annotations

import atexit
import copy
import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable

import numpy as np

from repro.exec.dag import FUSE_MAX_SUPERSTEPS, _route_stage, _sim_batch_stage
from repro.exec.local import Substrate, _seed_routes, _seed_sims
from repro.exec.registry import register_executor

__all__ = ["ShmSubstrate", "shutdown_pool"]


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
_atexit_registered = False


def _ensure_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide pool, grown (never shrunk) to ``workers``."""
    global _POOL, _POOL_WORKERS, _atexit_registered
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=True)
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
    _POOL_WORKERS = workers
    if not _atexit_registered:
        _atexit_registered = True
        atexit.register(shutdown_pool)
    return _POOL


def shutdown_pool(pool: ProcessPoolExecutor | None = None) -> None:
    """Tear down the worker pool (tests, exit); given ``pool``, only if current."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and (pool is None or pool is _POOL):
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: The one plan a worker has attached: its segment, zero-copy traces by
#: source key, and topologies by (name, p).  A new plan closes the old
#: mapping.  Workers are single-threaded, so their private state needs
#: no lock.
_WORKER_STATE: dict[str, Any] = {"shm": None, "traces": {}, "topos": {}}


def _attach_untracked(name: str) -> SharedMemory:
    """Attach to the parent's segment without resource-tracker custody.

    The parent owns the segment (it unlinks after the run); a worker
    registering its attachment would make the tracker, which forked
    workers share with the parent, unlink or complain a second time.
    """
    try:
        return SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13 has no track=
        from multiprocessing import resource_tracker

        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return SharedMemory(name=name)
        finally:
            resource_tracker.register = orig


def _attach(payload: dict) -> dict[str, Any]:
    """This worker's state for the shipped plan, (re)attached on demand."""
    state = _WORKER_STATE
    old = state["shm"]
    if old is not None and old.name == payload["shm"]:
        return state
    # Lazy: spawn-context workers import this module before the package.
    from repro.machine.trace import Trace

    if old is not None:
        state.update(shm=None, traces={}, topos={})  # repro: noqa[RPR004]
        old.close()
    shm = _attach_untracked(payload["shm"])
    flat = np.ndarray((payload["total"],), dtype=np.int64, buffer=shm.buf)
    flat.setflags(write=False)
    traces = {
        key: Trace.from_columns(v, *(flat[a:b] for a, b in spans))
        for key, (v, spans) in payload["manifest"].items()
    }
    state.update(shm=shm, traces=traces)  # repro: noqa[RPR004]
    return state


def _node(state: dict, skey: tuple, topo_name: str, p: int) -> tuple:
    """(trace, topology) of one node in this worker."""
    from repro.networks import by_name

    topo = state["topos"].get((topo_name, p))
    if topo is None:
        topo = state["topos"][(topo_name, p)] = by_name(topo_name, p)
    return state["traces"][skey], topo


def _route_shard(payload: dict, specs: list[tuple]) -> list:
    """Worker entry: route nodes against zero-copy shared trace columns."""
    state = _attach(payload)
    return [
        _route_stage(*_node(state, skey, topo_name, p), policy)
        for skey, topo_name, p, policy in specs
    ]


def _sim_shard(payload: dict, specs: list[tuple]) -> list:
    """Worker entry: sim nodes, seeding each node's route profile first
    (shipped by the parent) so the sims never re-route."""
    from repro.networks import seed_route_cache

    state = _attach(payload)
    live = []
    for skey, topo_name, p, policy, arb, aseed, flits, profile in specs:
        trace, topo = _node(state, skey, topo_name, p)
        if profile is not None:
            seed_route_cache(trace, topo, policy, profile)
        live.append((trace, topo, policy, arb, aseed, flits))
    return _sim_batch_stage(live, FUSE_MAX_SUPERSTEPS)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _pack_sources(runtime: Any) -> tuple[dict, SharedMemory]:
    """Pack every prepared source's trace columns into one shared block.

    Returns the worker payload (``(v, spans)`` per source key) and the
    owning :class:`SharedMemory`, which the caller unlinks after the run.
    """
    manifest: dict = {}
    blocks: list[np.ndarray] = []
    total = 0
    for key, tm in runtime._tms.items():
        cols = tm.trace.columns()
        spans = []
        for arr in (cols.labels, cols.offsets, cols.src, cols.dst):
            a = np.ascontiguousarray(arr, dtype=np.int64)
            spans.append((total, total + a.size))
            blocks.append(a)
            total += a.size
        manifest[key] = (tm.trace.v, tuple(spans))
    shm = SharedMemory(create=True, size=max(8, total * 8))
    flat = np.ndarray((total,), dtype=np.int64, buffer=shm.buf)
    if blocks:
        np.concatenate(blocks, out=flat)
    return {"shm": shm.name, "total": total, "manifest": manifest}, shm


class ShmSubstrate(Substrate):
    """Dispatch wave shards through the persistent shared-memory pool.

    ``workers`` overrides the pool size (default: ``max_workers`` or
    min(8, cells, cores)); plans under ``min_cells`` cells run in-line;
    ``force`` skips the single-CPU and tiny-plan gates (not the
    shippability ones), so one-core hosts can exercise the real pool.
    """

    name = "shm"
    # Per-run state (set on the copy :meth:`open` returns).
    pool: Any = None
    payload: Any = None
    block: Any = None
    meta: dict
    #: The pool failed mid-run: the remaining waves run in-line.
    failed = False

    def __init__(
        self, *, workers: int | None = None, min_cells: int = 4, force: bool = False
    ) -> None:
        self.pool_size = workers
        self.min_cells = min_cells
        self.force = force

    def open(
        self, runtime: Any, indices: list[int], max_workers: int | None, meta: dict
    ) -> Substrate:
        reason = None
        if not self.force and (os.cpu_count() or 1) <= 1:
            reason = "single-CPU host"
        elif not self.force and len(indices) < self.min_cells:
            reason = f"plan smaller than {self.min_cells} cells"
        else:
            block = None
            try:
                payload, block = _pack_sources(runtime)
                pickle.dumps((payload, [runtime.cells[i].policy for i in indices]))
                workers = self.pool_size or max(
                    2 if self.force else 1,
                    min(
                        8 if max_workers is None else max(1, max_workers),
                        max(1, len(indices)),
                        os.cpu_count() or 1,
                    ),
                )
                pool = _ensure_pool(workers)
            except Exception as err:  # a foreign source, a local policy class, ...
                if block is not None:
                    block.close()
                    block.unlink()
                reason = f"unshippable plan or no pool ({err})"
        if reason is not None:
            meta["executor_downgrade"] = reason
            return Substrate().open(runtime, indices, max_workers, meta)
        run = copy.copy(self)
        run.pool, run.payload, run.block, run.workers = pool, payload, block, workers
        run.meta = meta
        meta.update(executor_effective="shm", shm_workers=workers)
        return run

    def _wave(
        self, cold: list, fn: Callable, specs: list, inline: Callable, seed: Callable
    ) -> None:
        """Run ``fn(payload, shard)`` over one contiguous shard of ``specs``
        per worker and seed the artifacts.  If the pool breaks, it is
        shut down and this and every later wave of the run go in-line."""
        if not self.failed:
            step = -(-len(specs) // self.workers)
            try:
                futures = [
                    self.pool.submit(fn, self.payload, specs[lo : lo + step])
                    for lo in range(0, len(specs), step)
                ]
                artifacts = [out for f in futures for out in f.result()]
            except RuntimeError as err:  # dead worker, or pool shut down elsewhere
                warnings.warn(
                    f"shared-memory pool failed ({err!r}); finishing in-line",
                    RuntimeWarning,
                    stacklevel=6,
                )
                shutdown_pool(self.pool)
                self.failed = True
                self.meta.update(
                    executor_effective="serial",
                    executor_downgrade=f"pool failure ({err})",
                )
            else:
                seed(cold, artifacts)
                return
        inline(cold)

    def run_routes(self, cold: list) -> None:
        if cold:
            specs = [rkey[:3] + node[2:] for rkey, node in cold]
            self._wave(cold, _route_shard, specs, super().run_routes, _seed_routes)

    def run_sims(self, cold: list) -> None:
        from repro.networks import peek_route_cache

        if cold:
            specs = [
                sk[:3] + node[2:] + (peek_route_cache(*node[:3]),) for sk, node in cold
            ]
            self._wave(cold, _sim_shard, specs, super().run_sims, _seed_sims)

    def close(self) -> None:
        self.block.close()
        self.block.unlink()


register_executor("shm", ShmSubstrate)
