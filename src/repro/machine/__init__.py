"""The M(v) machine substrate: the recorder, traces, folding, persistence.

Algorithms record through :class:`ScheduleBuilder`, whose ``build()``
returns the one immutable columnar record of a run, a :class:`Trace`.
"""

from repro.machine.folding import (
    F_vector,
    S_vector,
    fold_degrees,
    fold_message_counts,
    fold_trace,
)
from repro.machine.program import ScheduleBuilder
from repro.machine.trace import ClusterViolation, Trace
from repro.machine.trace_io import load_trace, save_trace

__all__ = [
    "ClusterViolation",
    "ScheduleBuilder",
    "Trace",
    "fold_degrees",
    "fold_message_counts",
    "fold_trace",
    "F_vector",
    "S_vector",
    "save_trace",
    "load_trace",
]
