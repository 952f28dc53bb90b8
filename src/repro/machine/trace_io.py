"""Trace persistence: save/load recorded executions as ``.npz`` archives.

Traces of large runs are expensive to regenerate (the n=4096 Columnsort
trace holds ~17M messages); persisting them lets experiment pipelines
separate the *run* stage from the *analysis* stage, and lets downstream
users ship reference traces with their papers.

Format: one compressed ``.npz`` with ``v``, per-superstep ``labels``, the
concatenated ``src``/``dst`` arrays and the ``offsets`` splitting them —
exactly the in-memory columnar layout of a
:class:`~repro.machine.trace.Trace`, so saving is a direct dump and
loading rebuilds the trace zero-copy.  Stable, byte-portable, loadable
with plain numpy.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.machine.trace import Trace

__all__ = ["save_trace", "load_trace"]

_FORMAT_VERSION = 1


def save_trace(trace: Trace, path) -> None:
    """Write ``trace`` to ``path`` (``.npz``, compressed)."""
    path = Path(path)
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        v=np.int64(trace.v),
        labels=trace.labels,
        offsets=trace.offsets,
        src=trace.src,
        dst=trace.dst,
    )


def load_trace(path) -> Trace:
    """Load a trace written by :func:`save_trace` (validated on load).

    The archive holds no ``pattern``: validation computes it from the
    loaded content.
    """
    with np.load(Path(path)) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        trace = Trace(
            int(data["v"]), data["labels"], data["offsets"], data["src"], data["dst"]
        )
    trace.validate()
    return trace
