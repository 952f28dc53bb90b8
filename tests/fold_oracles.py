"""Superstep-by-superstep folding, kept as a test oracle.

These are the original computations of :mod:`repro.machine.folding`:
each superstep is folded on its own, read through
``trace.superstep(s)``, with no fold table, no representative
sub-trace and no memo.  The columnar kernels must equal them bit for
bit on every legal trace and every ``p``.
"""

from __future__ import annotations

import numpy as np

from repro.machine.program import ScheduleBuilder
from repro.machine.trace import Trace
from repro.util.intmath import ilog2

__all__ = [
    "fold_degrees_reference",
    "fold_message_counts_reference",
    "F_vector_reference",
    "S_vector_reference",
    "fold_trace_reference",
]


def _log_p(v: int, p: int) -> int:
    """``log p``, once ``p`` is checked to be a power of two ``<= v``."""
    logp = ilog2(p)
    if p > v:
        raise ValueError(f"cannot fold M({v}) onto a larger machine M({p})")
    return logp


def _degree(v: int, p: int, src: np.ndarray, dst: np.ndarray) -> int:
    """Degree ``h_s(n, p)`` of one superstep folded onto ``p`` processors.

    Under folding, processor ``r`` of ``M(p)`` carries VPs
    ``[r*(v/p), (r+1)*(v/p))``; only messages crossing a processor
    boundary are communicated.  The degree is the maximum over
    processors of messages sent *or* received (the h of the
    h-relation, Section 2).
    """
    block = v // p
    sp = src // block
    dp = dst // block
    cross = sp != dp
    if not cross.any():
        return 0
    sent = np.bincount(sp[cross], minlength=p)
    recv = np.bincount(dp[cross], minlength=p)
    return int(max(sent.max(), recv.max()))


def _message_count(v: int, p: int, src: np.ndarray, dst: np.ndarray) -> int:
    """Cross-processor messages of one superstep under folding to ``p``."""
    block = v // p
    return int(np.count_nonzero(src // block != dst // block))


def _supersteps(trace: Trace):
    """``(label, src, dst)`` of every superstep, in order."""
    return (trace.superstep(s) for s in range(trace.num_supersteps))


def fold_degrees_reference(trace: Trace, p: int) -> np.ndarray:
    """Superstep-by-superstep ``h_s(n, p)`` (oracle for :func:`fold_degrees`)."""
    _log_p(trace.v, p)
    return np.array(
        [_degree(trace.v, p, src, dst) for _, src, dst in _supersteps(trace)],
        dtype=np.int64,
    )


def fold_message_counts_reference(trace: Trace, p: int) -> np.ndarray:
    """Superstep-by-superstep cross-message counts (oracle)."""
    _log_p(trace.v, p)
    return np.array(
        [_message_count(trace.v, p, src, dst) for _, src, dst in _supersteps(trace)],
        dtype=np.int64,
    )


def F_vector_reference(trace: Trace, p: int) -> np.ndarray:
    """Superstep-by-superstep ``F^i(n, p)`` (oracle for :func:`F_vector`)."""
    logp = _log_p(trace.v, p)
    out = np.zeros(logp, dtype=np.int64)
    for label, src, dst in _supersteps(trace):
        if label < logp:
            out[label] += _degree(trace.v, p, src, dst)
    return out


def S_vector_reference(trace: Trace, p: int) -> np.ndarray:
    """Superstep-by-superstep ``S^i(n)`` (oracle for :func:`S_vector`)."""
    logp = _log_p(trace.v, p)
    out = np.zeros(logp, dtype=np.int64)
    for label, _, _ in _supersteps(trace):
        if label < logp:
            out[label] += 1
    return out


def fold_trace_reference(trace: Trace, p: int) -> Trace:
    """Superstep-by-superstep folded trace (oracle for :func:`fold_trace`)."""
    logp = _log_p(trace.v, p)
    block = trace.v // p
    folded = ScheduleBuilder(p)
    for label, src, dst in _supersteps(trace):
        if label >= logp:
            continue
        sp = src // block
        dp = dst // block
        cross = sp != dp
        folded.superstep(label, sp[cross], dp[cross])
    return folded.build()
