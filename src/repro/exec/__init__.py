"""Plan execution: one stage graph, four executor substrates, one store.

Every ``ExperimentPlan.run`` compiles the plan's deduplicated stage
graph (:mod:`repro.exec.dag`) and runs its waves on a registered
substrate — ``serial``, ``thread``, ``process`` (fork per wave) or
``shm`` (persistent pool over zero-copy shared sources).  ``store=``
adds the sqlite :class:`ResultStore` as a cell-level pre-pass.  All
substrates produce bit-identical rows; they differ in throughput and in
the metadata they record (effective substrate, downgrade reason, store
hits, stage dedup counters).
"""

from repro.exec.dag import StageGraph, clear_dag_stats, dag_stats, run_graph
from repro.exec.dag import stage_kernel
from repro.exec.local import ProcessSubstrate, Substrate, ThreadSubstrate
from repro.exec.registry import EXECUTORS, by_executor, executors, register_executor
from repro.exec.shm import ShmSubstrate, shutdown_pool
from repro.exec.store import ResultStore, cell_key, clear_store_stats, store_cache_stats

__all__ = [
    "Substrate", "ThreadSubstrate", "ProcessSubstrate", "ShmSubstrate",
    "register_executor", "by_executor", "executors", "EXECUTORS", "shutdown_pool",
    "StageGraph", "run_graph", "stage_kernel", "dag_stats", "clear_dag_stats",
    "ResultStore", "cell_key", "store_cache_stats", "clear_store_stats",
]
