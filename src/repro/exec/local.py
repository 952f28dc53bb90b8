"""The in-line executor: where a plan's stage waves run by default.

:class:`Substrate` itself (``serial``) runs each wave's cold nodes
in-line through the kind's :data:`~repro.exec.dag.STAGE_KERNELS` entry.
It is also the base every other substrate (the ``shm`` pool,
third-party ones) extends.  Substrates only choose where a node runs,
never what it computes, so all produce bit-identical rows; the wave
step in :mod:`repro.exec.dag` owns the LRUs and the artifacts.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.exec.dag import STAGE_KERNELS
from repro.exec.registry import register_executor

__all__ = ["Substrate"]


class Substrate:
    """How a plan run executes its waves of cold stage nodes.

    The base class is the ``serial`` executor: waves run in-line.
    Subclasses override :meth:`run` (and :meth:`open` when they can
    degrade).
    """

    name = "serial"

    def open(self, runtime: Any, indices: list[int], meta: dict) -> "Substrate":
        """The substrate that runs one plan's waves, recording
        ``executor_effective`` (and any ``executor_downgrade``) in
        ``meta``.  Per-run state lives on the returned copy."""
        meta["executor_effective"] = self.name
        return copy.copy(self)

    def run(self, kind: str, nodes: list[tuple[tuple, tuple]]) -> list:
        """The artifacts of one wave's ``(node_key, node_args)`` nodes of
        stage ``kind``, in node order."""
        return STAGE_KERNELS[kind]([args for _key, args in nodes])

    def close(self) -> None:
        """Release per-run resources (called once the waves are done)."""


register_executor("serial", Substrate)
