"""Generic level-synchronous DAG evaluation on M(v).

Any static DAG computation becomes an M(v) algorithm by choosing a node ->
VP assignment and evaluating level by level: one superstep per DAG level
carries every arc whose endpoints are owned by different VPs, labelled
with the *finest* legal label (the minimum shared-most-significant-bit
count over its messages) so the schedule exploits as much submachine
locality as the assignment exposes.

This is the reproduction's "scheduler" utility: it records an
assignment's supersteps into a
:class:`~repro.machine.program.ScheduleBuilder` and returns the validated
trace, letting the experiments compare hand-crafted network-oblivious
schedules (Section 4) against straightforward level-synchronous ones on
the same DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms._common import AlgorithmResult
from repro.dag.graph import StaticDAG
from repro.machine.program import ScheduleBuilder

__all__ = ["evaluate_on_machine", "DAGEvalResult", "block_assignment"]


@dataclass
class DAGEvalResult(AlgorithmResult):
    values: np.ndarray = None
    assignment: np.ndarray = None


def block_assignment(dag: StaticDAG, v: int) -> np.ndarray:
    """Assign nodes to VPs in level-major contiguous blocks.

    Within each level, nodes are spread evenly over the v VPs in order —
    the natural "owner computes, block layout" baseline assignment.
    """
    levels = dag.levels()
    assign = np.empty(dag.num_nodes, dtype=np.int64)
    for l in np.unique(levels):
        nodes = np.flatnonzero(levels == l)
        assign[nodes] = (np.arange(nodes.size) * v) // max(1, nodes.size)
    return assign


def evaluate_on_machine(
    dag: StaticDAG,
    v: int,
    inputs: np.ndarray,
    combine: Callable[[np.ndarray, list[np.ndarray]], np.ndarray],
    *,
    assignment: np.ndarray | None = None,
) -> DAGEvalResult:
    """Evaluate ``dag`` on ``M(v)`` level by level.

    ``inputs`` gives the values of the DAG's sources (in source order);
    ``combine(node_ids, operand_value_lists)`` computes a batch of nodes
    from their operand values (operand k of every node in the batch is
    ``operand_value_lists[k]``; batches group nodes of equal indegree).

    Returns every node's value plus the recorded, validated trace.
    """
    builder = ScheduleBuilder(v)  # rejects a non-power-of-two v
    levels = dag.levels()
    assign = block_assignment(dag, v) if assignment is None else assignment
    if assign.shape != (dag.num_nodes,):
        raise ValueError("assignment must give one VP per node")

    values = np.zeros(dag.num_nodes, dtype=np.complex128)
    src_nodes = dag.sources
    if inputs.shape[0] != src_nodes.shape[0]:
        raise ValueError(
            f"need {src_nodes.shape[0]} input values, got {inputs.shape[0]}"
        )
    values[src_nodes] = inputs

    logv = builder.logv
    for l in range(1, int(levels.max()) + 1):
        nodes = np.flatnonzero(levels == l)
        # Gather arc endpoints of this level.
        srcs, dsts = [], []
        by_indeg: dict[int, list[int]] = {}
        for u in nodes:
            ps = dag.preds(u)
            by_indeg.setdefault(len(ps), []).append(int(u))
            for q in ps:
                if assign[q] != assign[u]:
                    srcs.append(assign[q])
                    dsts.append(assign[u])
        src = np.array(srcs, dtype=np.int64)
        dst = np.array(dsts, dtype=np.int64)
        # Finest legal label: messages must stay in their label-cluster.
        label = 0
        if src.size:
            diff = src ^ dst
            label = int(logv - int(np.max(diff)).bit_length())
            label = max(0, min(label, logv - 1))
        builder.superstep(label, src, dst)
        for indeg, us in by_indeg.items():
            us = np.array(us)
            operands = [
                values[dag.pred_idx[dag.pred_indptr[us] + k]] for k in range(indeg)
            ]
            values[us] = combine(us, operands)

    return DAGEvalResult.from_schedule(
        builder.build(), dag.num_nodes, values=values, assignment=assign
    )
