"""The unified experiment API: registry, lazy pipelines, declarative plans.

The paper's contract — one specification, priced on every machine —
becomes three composable layers:

* the **algorithm registry** (:func:`algorithms`, :func:`by_name`):
  every Section-4 algorithm and BSP baseline as a uniform, discoverable
  :class:`AlgorithmSpec`;
* the **lazy pipeline** (:func:`run`): ``run("matmul", n=64)
  .fold(p=16).route("torus2d", policy="valiant").metrics()`` — deferred,
  memoised, reusable mid-chain;
* the **declarative plan** (:class:`ExperimentPlan`): a (algorithm,
  size, p, sigma, topology, policy) grid executed serially or by a
  worker pool into a typed :class:`ResultFrame`.
"""

from repro.api.registry import (
    AlgorithmSpec,
    algorithms,
    by_name,
    register,
    specs,
    unregister,
)
from repro.api.pipeline import MetricsRow, Pipeline, run
from repro.api.frame import RESULT_COLUMNS, ResultFrame, SweepTable
from repro.api.plan import ExperimentPlan, PlanCell

__all__ = [
    "AlgorithmSpec",
    "register",
    "unregister",
    "algorithms",
    "by_name",
    "specs",
    "Pipeline",
    "MetricsRow",
    "run",
    "SweepTable",
    "ResultFrame",
    "RESULT_COLUMNS",
    "PlanCell",
    "ExperimentPlan",
]
