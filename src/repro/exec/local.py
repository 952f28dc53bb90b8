"""The in-line executor: where a plan's stage waves run by default.

:class:`Substrate` itself (``serial``) runs waves in-line, landing
artifacts in the in-process LRUs.  It is also the base every other
substrate (the ``shm`` pool, third-party ones) extends, and
:func:`_seed_routes`/:func:`_seed_sims` land artifacts computed
elsewhere in those LRUs.  Substrates only choose where a node runs, so
all produce bit-identical rows.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.exec.dag import _route_stage, _sim_batch_stage
from repro.exec.registry import register_executor

__all__ = ["Substrate"]


def _seed_routes(cold: list, profiles: list) -> None:
    from repro.networks.routing import ROUTE_CACHE, route_key

    for (_rkey, node), profile in zip(cold, profiles):
        ROUTE_CACHE.seed(route_key(*node), profile)


def _seed_sims(cold: list, profiles: list) -> None:
    from repro.sim.engine import SIM_CACHE, sim_key

    for (_sk, node), profile in zip(cold, profiles):
        SIM_CACHE.seed(sim_key(*node), profile)


class Substrate:
    """How a plan run executes its waves of cold stage nodes.

    The base class is the ``serial`` executor: waves run in-line.
    Subclasses override :meth:`run_routes`/:meth:`run_sims` (and
    :meth:`open` when they can degrade).  ``cold`` wave entries are
    ``(node_key, node_args)`` pairs from the stage graph.
    """

    name = "serial"

    def open(
        self, runtime: Any, indices: list[int], max_workers: int | None, meta: dict
    ) -> "Substrate":
        """The substrate that runs one plan's waves, recording
        ``executor_effective`` (and any ``executor_downgrade``) in
        ``meta``.  Per-run state lives on the returned copy."""
        meta["executor_effective"] = self.name
        return copy.copy(self)

    def run_routes(self, cold: list) -> None:
        for _rkey, (trace, topo, policy) in cold:
            _route_stage(trace, topo, policy)

    def run_sims(self, cold: list) -> None:
        _sim_batch_stage([node for _sk, node in cold])

    def close(self) -> None:
        """Release per-run resources (called once the waves are done)."""


register_executor("serial", Substrate)
