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
``p``.  Let ``c`` be the number of leading bits that a message's
``src`` and ``dst`` share (``c = log v - bit_length(src ^ dst)``); the
message crosses the fold onto ``2^j`` processors exactly when ``c < j``.
The table holds ``c`` per message, the cross-message counts of every
level (one ``np.bincount`` over (superstep, c) and a cumulative sum along
``c``) and the per-label superstep counts.  A level's degree row, and
the ``F`` row built from it, is filled on first use from one
``np.bincount`` over fused (superstep, processor) keys, or a sort-based
group-by when that dense grid would dwarf the message count.  Every
memoised value lives on the trace instance in a small LRU, so it is
released with the trace (traces are immutable, so nothing invalidates
it).  The original superstep-by-superstep computations are kept as the
``*_reference`` functions and property-tested bit-identical to the
kernels.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, TypeVar

import numpy as np

from repro.machine.program import ScheduleBuilder
from repro.machine.trace import Trace
from repro.util.caches import LRU
from repro.util.intmath import ilog2

__all__ = [
    "fold_degrees",
    "F_vector",
    "S_vector",
    "fold_trace",
    "fold_message_counts",
    "fold_degrees_reference",
    "F_vector_reference",
    "S_vector_reference",
    "fold_trace_reference",
    "fold_message_counts_reference",
    "clear_fold_cache",
    "fold_cache_stats",
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

#: Reset the fold counters (per-trace memos are released with their
#: traces and are not reachable).
clear_fold_cache = FOLD_CACHE.clear
#: Hit/miss/eviction counters across every trace's fold memo.
fold_cache_stats = FOLD_CACHE.stats


def _local_maxsize(v: int) -> int:
    """Entries of a trace's fold memo: its table plus, at each of the
    ``log v + 1`` values of ``p`` it folds to, the folded trace, the
    level row and the phase legs of both shipped routing policies
    (:func:`repro.networks.routing.fold_legs`)."""
    return 1 + 4 * (ilog2(v) + 1)


def _trace_cached(trace: Trace, key: tuple, compute: Callable[[], _T]) -> _T:
    """Memoise a value derived from ``trace`` on the trace instance itself,
    under ``key``; a foreign trace-like object (no ``cache_token``)
    computes uncached."""
    if getattr(trace, "cache_token", None) is None:
        return compute()
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
    :class:`~repro.machine.trace.Trace` are frozen in turn."""
    if isinstance(value, tuple):
        for item in value:
            _frozen(item)
    elif isinstance(value, Trace):
        _frozen((value.labels, value.offsets, value.src, value.dst))
    else:
        value.setflags(write=False)
    return value


# ----------------------------------------------------------------------
# Columnar kernels
# ----------------------------------------------------------------------
class _FoldTable(NamedTuple):
    #: Leading bits each message's ``src`` and ``dst`` share (int8).
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
    the counts rows, once per trace, and a violating trace is
    rejected loudly rather than silently under-counted.
    """

    def compute() -> _FoldTable:
        logv = ilog2(trace.v)
        S = trace.num_supersteps
        labels = trace.labels
        # frexp's exponent is the bit length (exact below 2^53).
        c = (logv - np.frexp(trace.src ^ trace.dst)[1]).astype(np.int8)
        hist = np.bincount(
            trace.superstep_index() * (logv + 1) + c, minlength=S * (logv + 1)
        ).reshape(S, logv + 1)
        counts = np.zeros((logv + 1, S), dtype=np.int64)
        np.cumsum(hist[:, :logv].T, axis=0, out=counts[1:])
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

    Processor ids come from bit shifts of the crossing messages, and
    (superstep, processor) pairs fuse into a single key so one
    ``bincount`` yields the whole send/receive count grid; falls back to
    a sort-based group-by when the dense ``S x 2^j`` grid would dwarf
    the message count (long sparse traces folded onto many processors).
    """

    def compute() -> tuple[np.ndarray, np.ndarray]:
        table = _table(trace)
        S = trace.num_supersteps
        deg = np.zeros(S, dtype=np.int64)
        if table.counts[j].any():
            p = 1 << j
            cross = table.c < j
            sidx = trace.superstep_index()[cross]
            shift = ilog2(trace.v) - j
            sp = trace.src[cross] >> shift
            dp = trace.dst[cross] >> shift
            grid = S * p
            if grid <= max(4 * sp.size, 1 << 20):
                key = sidx * p
                sent = np.bincount(key + sp, minlength=grid).reshape(S, p)
                recv = np.bincount(key + dp, minlength=grid).reshape(S, p)
                deg = np.maximum(sent.max(axis=1), recv.max(axis=1)).astype(np.int64)
            else:
                for procs in (sp, dp):
                    uniq, counts = np.unique(sidx * p + procs, return_counts=True)
                    np.maximum.at(deg, uniq // p, counts)
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

    Built from the fold table: the messages with ``c < log p`` and the
    table's counts row.  The folded trace is memoised per ``(trace, p)``
    in the trace's own memo, so every call returns the same immutable
    object and its own memos (``superstep_index``, its folds) are shared
    by every caller.
    """
    logp = _check_fold(trace.v, p)

    def compute() -> Trace:
        table = _table(trace)  # legality gate, same contract as the degrees
        shift = ilog2(trace.v) - logp
        ss_kept = trace.labels < logp
        msg_kept = table.c < logp
        new_counts = table.counts[logp][ss_kept]
        offsets = np.zeros(new_counts.size + 1, dtype=np.int64)
        np.cumsum(new_counts, out=offsets[1:])
        return _frozen(Trace(
            p,
            trace.labels[ss_kept],
            offsets,
            trace.src[msg_kept] >> shift,
            trace.dst[msg_kept] >> shift,
        ))

    return _trace_cached(trace, ("fold", p), compute)


# ----------------------------------------------------------------------
# Superstep-by-superstep reference implementations
# ----------------------------------------------------------------------
# These are the original superstep-by-superstep computations, retained as
# the oracle the vectorised kernels are property-tested against.


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
    _check_fold(trace.v, p)
    return np.array(
        [_degree(trace.v, p, src, dst) for _, src, dst in _supersteps(trace)],
        dtype=np.int64,
    )


def fold_message_counts_reference(trace: Trace, p: int) -> np.ndarray:
    """Superstep-by-superstep cross-message counts (oracle)."""
    _check_fold(trace.v, p)
    return np.array(
        [_message_count(trace.v, p, src, dst) for _, src, dst in _supersteps(trace)],
        dtype=np.int64,
    )


def F_vector_reference(trace: Trace, p: int) -> np.ndarray:
    """Superstep-by-superstep ``F^i(n, p)`` (oracle for :func:`F_vector`)."""
    logp = _check_fold(trace.v, p)
    out = np.zeros(logp, dtype=np.int64)
    for label, src, dst in _supersteps(trace):
        if label < logp:
            out[label] += _degree(trace.v, p, src, dst)
    return out


def S_vector_reference(trace: Trace, p: int) -> np.ndarray:
    """Superstep-by-superstep ``S^i(n)`` (oracle for :func:`S_vector`)."""
    logp = _check_fold(trace.v, p)
    out = np.zeros(logp, dtype=np.int64)
    for label, _, _ in _supersteps(trace):
        if label < logp:
            out[label] += 1
    return out


def fold_trace_reference(trace: Trace, p: int) -> Trace:
    """Superstep-by-superstep folded trace (oracle for :func:`fold_trace`)."""
    logp = _check_fold(trace.v, p)
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
