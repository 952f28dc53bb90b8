"""The ``shm`` executor: stage waves over a persistent shared-memory pool.

One worker pool per process, created on first use and reused by every
run (workers keep their imports and fold LRU).  Every prepared source's
``int64`` trace columns and its ``pattern`` ship once, zero-copy, in a single
``multiprocessing.shared_memory`` block that workers map as read-only
views.  A wave's cold nodes are cut into one contiguous shard per
worker, and every shard, of any stage kind, enters the worker through
:func:`_shard`, which runs the kind's stage kernel.  Sim nodes carry
their route profiles, so workers never re-route.  The parent re-freezes
the returned arrays (pickling drops numpy's read-only flag) before its
wave step caches them.

Degradation is recorded, never silent: on a single-CPU host, for tiny
plans, or when the plan cannot ship (an unpicklable routing policy or
params), waves run in-line and the frame
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
from typing import Any

import numpy as np

from repro.exec.dag import STAGE_KERNELS
from repro.exec.local import Substrate
from repro.exec.registry import register_executor
from repro.util import sanitize

__all__ = ["ShmSubstrate", "shutdown_pool"]

#: Plans with fewer cells run in-line (the pool's dispatch cost dominates).
MIN_CELLS = 4


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
        key: Trace(v, *(flat[a:b] for a, b in spans))
        for key, (v, spans) in payload["manifest"].items()
    }
    state.update(shm=shm, traces=traces)  # repro: noqa[RPR004]
    return state


def _shard(payload: dict, kind: str, specs: list[tuple]) -> list:
    """Worker entry: one shard of a wave's cold nodes of stage ``kind``.

    Each spec is ``(source_key, topology_name, p, *rest)``: the node is
    this worker's zero-copy trace and ``(name, p)`` topology plus
    ``rest`` (the policy, and for sims the arbiter fields and route
    profile).
    """
    from repro.networks import by_name

    state = _attach(payload)
    topos = state["topos"]
    nodes: list[tuple] = []
    for skey, name, p, *rest in specs:
        if (name, p) not in topos:
            topos[(name, p)] = by_name(name, p)
        nodes.append((state["traces"][skey], topos[(name, p)], *rest))
    return STAGE_KERNELS[kind](nodes)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _pack_sources(runtime: Any) -> tuple[dict, SharedMemory]:
    """Pack every prepared source's trace columns and its ``pattern``
    into one shared block (workers take the pattern as it is).

    Returns the worker payload (``(v, spans)`` per source key) and the
    owning :class:`SharedMemory`, which the caller unlinks after the run.
    """
    manifest: dict = {}
    blocks: list[np.ndarray] = []
    total = 0
    for key, tm in runtime._tms.items():
        trace = tm.trace
        spans = []
        for arr in (trace.labels, trace.offsets, trace.src, trace.dst, trace.pattern):
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

    ``workers`` sets the pool size (default: min(8, cells, cores));
    plans under :data:`MIN_CELLS` cells run in-line; ``force`` skips the
    single-CPU and tiny-plan gates (not the shippability ones), so
    one-core hosts can exercise the real pool.
    """

    name = "shm"
    # Per-run state (set on the copy :meth:`open` returns).
    pool: Any = None
    payload: Any = None
    block: Any = None
    workers = 1
    meta: dict
    #: The pool failed mid-run: the remaining waves run in-line.
    failed = False

    def __init__(self, *, workers: int | None = None, force: bool = False) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.pool_size = workers
        self.force = force

    def open(self, runtime: Any, indices: list[int], meta: dict) -> Substrate:
        reason = None
        if not self.force and (os.cpu_count() or 1) <= 1:
            reason = "single-CPU host"
        elif not self.force and len(indices) < MIN_CELLS:
            reason = f"plan smaller than {MIN_CELLS} cells"
        else:
            block = None
            try:
                payload, block = _pack_sources(runtime)
                pickle.dumps((payload, [runtime.cells[i].policy for i in indices]))
                workers = self.pool_size or max(
                    2 if self.force else 1,
                    min(8, max(1, len(indices)), os.cpu_count() or 1),
                )
                pool = _ensure_pool(workers)
            except Exception as err:  # a local policy class, ...
                if block is not None:
                    block.close()
                    block.unlink()
                reason = f"unshippable plan or no pool ({err})"
        if reason is not None:
            meta["executor_downgrade"] = reason
            return Substrate().open(runtime, indices, meta)
        run = copy.copy(self)
        run.pool, run.payload, run.block, run.workers = pool, payload, block, workers
        run.meta = meta
        meta.update(executor_effective="shm", shm_workers=workers)
        return run

    def run(self, kind: str, nodes: list[tuple[tuple, tuple]]) -> list:
        """Run one contiguous shard of ``nodes`` per worker.  If the pool
        breaks, it is shut down and this and every later wave of the run
        go in-line."""
        if not self.failed:
            specs = [key[:3] + args[2:] for key, args in nodes]
            step = -(-len(specs) // self.workers)
            try:
                futures = [
                    self.pool.submit(_shard, self.payload, kind, specs[lo : lo + step])
                    for lo in range(0, len(specs), step)
                ]
                artifacts = [out for f in futures for out in f.result()]
                for arr in sanitize.reachable_arrays(artifacts):
                    arr.setflags(write=False)  # unpickling made them writeable
                return artifacts
            except RuntimeError as err:  # dead worker, or pool shut down elsewhere
                warnings.warn(
                    f"shared-memory pool failed ({err!r}); finishing in-line",
                    RuntimeWarning,
                    stacklevel=5,
                )
                shutdown_pool(self.pool)
                self.failed = True
                self.meta.update(
                    executor_effective="serial",
                    executor_downgrade=f"pool failure ({err})",
                )
        return super().run(kind, nodes)

    def close(self) -> None:
        self.block.close()
        self.block.unlink()


register_executor("shm", ShmSubstrate)
