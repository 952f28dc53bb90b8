"""Small helpers over traces and sweep tables.

Grids of H, D, routed-time or lower-bound ratios are
:class:`~repro.api.plan.ExperimentPlan` runs pivoted into a
:class:`SweepTable`::

    from repro.api import ExperimentPlan
    table = ExperimentPlan.from_trace(trace, ps=[4, 16],
        sigmas=(0.0, 2.0)).run().pivot("p", "sigma", "H")

:class:`SweepTable` lives in :mod:`repro.api.frame` and is re-exported
here unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.frame import SweepTable
from repro.core.fullness import measured_gamma
from repro.core.metrics import TraceMetrics
from repro.core.wiseness import measured_alpha
from repro.machine.trace import Trace
from repro.util.intmath import ilog2

__all__ = [
    "SweepTable",
    "metrics_of",
    "wiseness_report",
    "default_fold_grid",
]


def metrics_of(trace_or_metrics: Trace | TraceMetrics) -> TraceMetrics:
    """Coerce a trace into (or pass through) a :class:`TraceMetrics`."""
    if isinstance(trace_or_metrics, TraceMetrics):
        return trace_or_metrics
    return TraceMetrics(trace_or_metrics)


def default_fold_grid(v: int, *, factor: int = 4, start: int = 4) -> list[int]:
    """Power-of-``factor`` processor counts up to ``v``."""
    ilog2(v)
    out = []
    p = start
    while p <= v:
        out.append(p)
        p *= factor
    return out or [v]


def wiseness_report(
    trace: Trace | TraceMetrics, ps: Sequence[int] | None = None
) -> SweepTable:
    """alpha (Def. 3.2) and gamma (Def. 5.2) across fold sizes."""
    tm = metrics_of(trace)
    ps = list(ps) if ps is not None else default_fold_grid(tm.v)
    rows = tuple(
        (measured_alpha(tm, p), float(min(measured_gamma(tm, p), np.inf)))
        for p in ps
    )
    return SweepTable("wiseness/fullness", tuple(ps), ("alpha", "gamma"), rows)
