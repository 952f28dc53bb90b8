"""Plan execution: one stage graph, two executor substrates, one store.

Every ``ExperimentPlan.run`` compiles the plan's deduplicated stage
graph (:mod:`repro.exec.dag`) and runs its waves on a registered
substrate — ``serial`` (in-line) or ``shm`` (a persistent pool over
zero-copy shared sources, started with ``spawn`` on hosts without
``fork``).  ``store=`` adds the sqlite :class:`ResultStore` as a
cell-level pre-pass.  Both substrates produce bit-identical rows; they
differ in throughput and in the metadata they record (effective
substrate, downgrade reason, store hits, stage dedup counters).
"""

from repro.exec.dag import StageGraph, run_graph, stage_kernel
from repro.exec.local import Substrate
from repro.exec.registry import EXECUTORS, by_executor, executors, register_executor
from repro.exec.shm import ShmSubstrate, shutdown_pool
from repro.exec.store import ResultStore, cell_key, cell_keys

__all__ = [
    "Substrate", "ShmSubstrate",
    "register_executor", "by_executor", "executors", "EXECUTORS", "shutdown_pool",
    "StageGraph", "run_graph", "stage_kernel",
    "ResultStore", "cell_key", "cell_keys",
]
