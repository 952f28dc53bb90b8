"""The M(v) machine substrate: schedule IR, traces, folding, persistence."""

from repro.machine.folding import (
    F_vector,
    S_vector,
    clear_fold_cache,
    fold_degrees,
    fold_message_counts,
    fold_trace,
)
from repro.machine.program import Schedule, ScheduleBuilder
from repro.machine.trace import ClusterViolation, SuperstepRecord, Trace, TraceColumns
from repro.machine.trace_io import load_trace, save_trace

__all__ = [
    "ClusterViolation",
    "Schedule",
    "ScheduleBuilder",
    "Trace",
    "TraceColumns",
    "SuperstepRecord",
    "fold_degrees",
    "fold_message_counts",
    "fold_trace",
    "F_vector",
    "S_vector",
    "clear_fold_cache",
    "save_trace",
    "load_trace",
]
