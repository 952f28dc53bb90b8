"""Folding: executing an M(v) algorithm on a smaller machine M(2^j).

Folding (Section 2) maps the ``v/p`` consecutively numbered VPs starting
at ``r * (v/p)`` onto processor ``r`` of ``M(p)``.  Under the fold:

* messages between VPs of the same processor become local memory traffic
  and stop counting toward communication;
* an i-superstep with ``i < log p`` remains an i-superstep of ``M(p)``;
* an i-superstep with ``i >= log p`` collapses into local computation
  (no communication, no synchronisation cost).

This module computes the folded quantities ``h_s(n,p)``, ``F^i(n,p)`` and
``S^i(n)`` from a recorded :class:`~repro.machine.trace.Trace`, and can
materialise the folded trace itself (used by the ascend–descend protocol
of Section 5 and by the network-routing validation experiments).

Implementation: the clusters nest, so one table per trace serves every
``p``, and a superstep's degrees and cross counts depend only on its
``src``/``dst``, so the table is built per *distinct* superstep.  The
trace's :attr:`~repro.machine.trace.Trace.pattern` names one
representative per class of equal supersteps; the representatives form
a sub-trace (the trace itself when nothing repeats) that every content
kernel runs on, and each per-superstep row is gathered back through the
pattern.  Let ``c`` be the number of leading bits that a message's
``src`` and ``dst`` share (``c = log v - bit_length(src ^ dst)``); the
message crosses the fold onto ``2^j`` processors exactly when ``c < j``.
The table holds ``c`` per representative message, the cross-message
counts of every level and superstep (one ``np.bincount`` over
(representative, c), a cumulative sum along ``c``, then the gather) and
the per-label superstep counts.  A level's degree row, and the ``F`` row
built from it with every superstep's own label, is filled on first use
from one ``np.bincount`` over fused (representative, processor) keys, or
a sort-based group-by when that dense grid would dwarf the message
count.  The folded trace is the representatives' folded messages
gathered into superstep order, and inherits the pattern.  Every memoised
value lives on the trace instance in a small LRU, so it is released with
the trace (traces are immutable, so nothing invalidates it).  The
superstep-by-superstep oracles the kernels are property-tested against
live with the tests.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, TypeVar

import numpy as np

from repro.machine.trace import Trace
from repro.util.caches import LRU
from repro.util.intmath import ilog2

__all__ = [
    "fold_degrees",
    "F_vector",
    "S_vector",
    "fold_trace",
    "fold_message_counts",
]


_T = TypeVar("_T")


def _check_fold(v: int, p: int) -> int:
    """``log p``, once ``p`` is checked to be a power of two ``<= v``."""
    logp = ilog2(p)
    if p > v:
        raise ValueError(f"cannot fold M({v}) onto a larger machine M({p})")
    return logp


# ----------------------------------------------------------------------
# Per-trace memoisation
# ----------------------------------------------------------------------
#: Holds no entries itself: each trace carries its own LRU
#: (:meth:`LRU.local`) sharing this one's lock and counters.
FOLD_CACHE = LRU("fold", 0)


def _local_maxsize(v: int) -> int:
    """Entries of a trace's fold memo: its representative sub-trace and
    its table plus, at each of the ``log v + 1`` values of ``p`` it
    folds to, the folded trace, the level row and the phase legs of both
    shipped routing policies (:func:`repro.networks.routing.fold_legs`)."""
    return 2 + 4 * (ilog2(v) + 1)


def _trace_cached(trace: Trace, key: tuple, compute: Callable[[], _T]) -> _T:
    """Memoise a value derived from ``trace`` on the trace instance itself,
    under ``key``."""
    cache = trace._local_fold_cache
    if cache is None:
        cache = trace._local_fold_cache = FOLD_CACHE.local(_local_maxsize(trace.v))
    value = cache.get(key)
    if value is None:
        value = cache.put(key, compute())
    return value


def _frozen(value: _T) -> _T:
    """Mark a cached result read-only: shared across callers, so an
    in-place mutation would silently poison every future lookup.  The
    arrays of a (nested) tuple and the four columns of a
    :class:`~repro.machine.trace.Trace` are frozen in turn; ``None``
    entries are left alone."""
    if isinstance(value, tuple):
        for item in value:
            _frozen(item)
    elif isinstance(value, Trace):
        _frozen((value.labels, value.offsets, value.src, value.dst))
    elif value is not None:
        value.setflags(write=False)
    return value


# ----------------------------------------------------------------------
# Columnar kernels
# ----------------------------------------------------------------------
def _distinct(trace: Trace) -> tuple[Trace, np.ndarray]:
    """``(reps, rank)``: the trace of ``trace``'s representative
    supersteps (those with ``pattern[s] == s``, in order; ``trace``
    itself when nothing repeats) and, per superstep, the index of its
    representative in it.  Cached per trace."""

    def compute() -> tuple[Trace | None, np.ndarray]:
        pattern = trace.pattern
        own = pattern == np.arange(pattern.size)
        rank = np.cumsum(own) - 1
        if own.all():
            # Not the trace itself: a trace in its own memo is a cycle.
            return _frozen((None, rank))
        counts = trace.counts[own]
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        keep = np.repeat(own, trace.counts)
        reps = Trace(
            trace.v,
            trace.labels[own],
            offsets,
            trace.src[keep],
            trace.dst[keep],
            np.arange(counts.size),
        )
        return _frozen((reps, rank[pattern]))

    reps, rank = _trace_cached(trace, ("distinct",), compute)
    return (trace if reps is None else reps), rank


class _FoldTable(NamedTuple):
    #: Leading bits each representative message's ``src`` and ``dst``
    #: share (int8), in the layout of :func:`_distinct`'s sub-trace.
    c: np.ndarray
    #: ``(log v + 1) x S``: row ``j`` counts each superstep's messages
    #: crossing the fold onto ``2^j`` processors (``c < j``).
    counts: np.ndarray
    #: Supersteps per label ``i < log v`` (``S^i(n)``).
    S: np.ndarray


def _table(trace: Trace) -> _FoldTable:
    """The trace's fold table (cached per trace).

    The kernels rely on cluster legality (a message of an i-superstep
    shares its ``i`` leading bits, ``c >= i``), so it is checked here on
    the gathered counts rows with every superstep's own label, once per
    trace, and a violating trace is rejected loudly rather than silently
    under-counted.
    """

    def compute() -> _FoldTable:
        logv = ilog2(trace.v)
        S = trace.num_supersteps
        labels = trace.labels
        reps, rank = _distinct(trace)
        R = reps.num_supersteps
        # frexp's exponent is the bit length (exact below 2^53).
        c = (logv - np.frexp(reps.src ^ reps.dst)[1]).astype(np.int8)
        hist = np.bincount(
            reps.superstep_index() * (logv + 1) + c, minlength=R * (logv + 1)
        ).reshape(R, logv + 1)
        rep_counts = np.zeros((logv + 1, R), dtype=np.int64)
        np.cumsum(hist[:, :logv].T, axis=0, out=rep_counts[1:])
        counts = rep_counts[:, rank]
        if not getattr(trace, "is_validated", False):
            high = (trace.counts > 0) & (labels >= max(logv, 1))
            if high.any():
                raise ValueError(
                    f"cannot fold: superstep label {int(labels[high].max())} "
                    f"carries messages but is outside [0, {logv}) for v={trace.v}"
                )
            if counts[np.clip(labels, 0, logv), np.arange(S)].any():
                raise ValueError(
                    "cannot fold a cluster-illegal trace: some message leaves "
                    "its superstep's cluster (run trace.validate() to locate it)"
                )
        return _frozen(_FoldTable(
            c, counts, np.bincount(labels[labels < logv], minlength=logv)
        ))

    return _trace_cached(trace, ("table",), compute)


def _level(trace: Trace, j: int) -> tuple[np.ndarray, np.ndarray]:
    """``(h_s(n, 2^j) per superstep, F(n, 2^j))``, filled on first use.

    Degrees are computed once per representative and gathered.
    Processor ids come from bit shifts of the crossing messages, and
    (representative, processor) pairs fuse into a single key so one
    ``bincount`` yields the whole send/receive count grid; falls back to
    a sort-based group-by when the dense ``R x 2^j`` grid would dwarf
    the message count (long sparse traces folded onto many processors).
    """

    def compute() -> tuple[np.ndarray, np.ndarray]:
        table = _table(trace)
        reps, rank = _distinct(trace)
        R = reps.num_supersteps
        deg = np.zeros(R, dtype=np.int64)
        if table.counts[j].any():
            p = 1 << j
            cross = table.c < j
            sidx = reps.superstep_index()[cross]
            shift = ilog2(trace.v) - j
            sp = reps.src[cross] >> shift
            dp = reps.dst[cross] >> shift
            grid = R * p
            if grid <= max(4 * sp.size, 1 << 20):
                key = sidx * p
                sent = np.bincount(key + sp, minlength=grid).reshape(R, p)
                recv = np.bincount(key + dp, minlength=grid).reshape(R, p)
                deg = np.maximum(sent.max(axis=1), recv.max(axis=1)).astype(np.int64)
            else:
                for procs in (sp, dp):
                    uniq, counts = np.unique(sidx * p + procs, return_counts=True)
                    np.maximum.at(deg, uniq // p, counts)
        deg = deg[rank]
        keep = trace.labels < j
        F = np.bincount(trace.labels[keep], weights=deg[keep], minlength=j)
        return _frozen((deg, F.astype(np.int64)))

    return _trace_cached(trace, ("level", j), compute)


def fold_degrees(trace: Trace, p: int) -> np.ndarray:
    """Per-superstep degrees ``h_s(n, p)`` of the trace folded onto ``p``.

    Supersteps whose label is ``>= log p`` fold into local computation and
    are reported with degree 0 (they carry no cross-processor messages by
    the cluster constraint, so this is also what the arithmetic gives).
    """
    return _level(trace, _check_fold(trace.v, p))[0]


def fold_message_counts(trace: Trace, p: int) -> np.ndarray:
    """Total cross-processor messages per superstep under folding to ``p``."""
    return _table(trace).counts[_check_fold(trace.v, p)]


def F_vector(trace: Trace, p: int) -> np.ndarray:
    """Cumulative degrees ``F^i(n, p)`` for ``0 <= i < log p`` (length log p).

    ``F^i(n,p) = sum over i-supersteps s of h_s(n,p)`` — Section 2.  For
    ``p = 1`` the vector is empty (a one-processor machine communicates
    nothing).
    """
    return _level(trace, _check_fold(trace.v, p))[1]


def S_vector(trace: Trace, p: int) -> np.ndarray:
    """Superstep counts ``S^i(n)`` for ``0 <= i < log p`` (length log p).

    Only labels below ``log p`` survive the fold; coarser supersteps become
    local computation on ``M(p)`` and pay no latency.
    """
    return _table(trace).S[: _check_fold(trace.v, p)]


def fold_trace(trace: Trace, p: int) -> Trace:
    """Materialise the folded trace on ``M(p)``.

    Message endpoints are divided by the block size ``v/p``; messages that
    became processor-local are dropped.  Supersteps with labels
    ``>= log p`` vanish (local computation); surviving supersteps that
    lost all their messages are kept — they still cost a synchronisation
    on the folded machine.

    Built from the fold table: the representatives' messages with
    ``c < log p``, gathered into superstep order by the table's counts
    row.  The folded trace inherits the pattern: equal supersteps fold
    to equal supersteps.  It is memoised per ``(trace, p)`` in the
    trace's own memo, so every call returns the same immutable object
    and its own memos (``superstep_index``, its folds) are shared by
    every caller.
    """
    logp = _check_fold(trace.v, p)

    def compute() -> Trace:
        table = _table(trace)  # legality gate, same contract as the degrees
        reps, rank = _distinct(trace)
        shift = ilog2(trace.v) - logp
        ss_kept = trace.labels < logp
        new_counts = table.counts[logp][ss_kept]
        offsets = np.zeros(new_counts.size + 1, dtype=np.int64)
        np.cumsum(new_counts, out=offsets[1:])
        msg_kept = table.c < logp
        src = reps.src[msg_kept] >> shift
        dst = reps.dst[msg_kept] >> shift
        kept_rank = rank[ss_kept]
        if reps is not trace:
            # Each kept superstep's messages are its representative's.
            rep_counts = np.empty(reps.num_supersteps, dtype=np.int64)
            rep_counts[rank] = table.counts[logp]
            rep_start = np.cumsum(rep_counts) - rep_counts
            at = np.repeat(rep_start[kept_rank] - offsets[:-1], new_counts)
            at += np.arange(offsets[-1])
            src, dst = src[at], dst[at]
        # A class whose first member folded away is represented by its
        # first kept member.
        classes, first = np.unique(kept_rank, return_index=True)
        first_kept = np.empty(reps.num_supersteps, dtype=np.int64)
        first_kept[classes] = first
        return _frozen(Trace(
            p, trace.labels[ss_kept], offsets, src, dst, first_kept[kept_rank]
        ))

    return _trace_cached(trace, ("fold", p), compute)
