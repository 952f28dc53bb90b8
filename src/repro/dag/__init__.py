"""DAG computation substrate: builders, oracles and a level-synchronous
scheduler that records through ``ScheduleBuilder``."""

from repro.dag.diamond import (
    StripeDecomposition,
    build_diamond_dag,
    diamond_nodes,
    phase_counts,
    stripe_decomposition,
)
from repro.dag.evaluate import DAGEvalResult, block_assignment, evaluate_on_machine
from repro.dag.fft_dag import build_fft_dag, evaluate_fft_dag_values, fft_via_dag
from repro.dag.graph import StaticDAG
from repro.dag.stencil_dag import (
    build_stencil_dag_1d,
    build_stencil_dag_2d,
    evaluate_stencil_1d,
    evaluate_stencil_2d,
)

__all__ = [
    "StaticDAG",
    "build_fft_dag",
    "evaluate_fft_dag_values",
    "fft_via_dag",
    "build_diamond_dag",
    "diamond_nodes",
    "stripe_decomposition",
    "StripeDecomposition",
    "phase_counts",
    "build_stencil_dag_1d",
    "build_stencil_dag_2d",
    "evaluate_stencil_1d",
    "evaluate_stencil_2d",
    "evaluate_on_machine",
    "block_assignment",
    "DAGEvalResult",
]
