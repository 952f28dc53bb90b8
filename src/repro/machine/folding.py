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

Implementation: the clusters nest, so one table per trace version serves
every ``p``.  Let ``c`` be the number of leading bits that a message's
``src`` and ``dst`` share (``c = log v - bit_length(src ^ dst)``); the
message crosses the fold onto ``2^j`` processors exactly when ``c < j``.
The table holds ``c`` per message, the cross-message counts of every
level (one ``np.bincount`` over (superstep, c) and a cumulative sum along
``c``) and the per-label superstep counts.  A level's degree row, and
the ``F`` row built from it, is filled on first use from one
``np.bincount`` over fused (superstep, processor) keys, or a sort-based
group-by when that dense grid would dwarf the message count.  Every
memoised value lives on the trace instance in a small LRU keyed by the
trace version, so it is released with the trace and invalidated by an
``append``.  The per-record ``SuperstepRecord.degree`` path is kept as
``*_reference`` functions and property-tested bit-identical to the
kernels.
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
    ``log v + 1`` values of ``p`` it folds to, the folded columns, the
    level row and the phase legs of both shipped routing policies
    (:func:`repro.networks.routing.fold_legs`)."""
    return 1 + 4 * (ilog2(v) + 1)


def _trace_cached(trace: Trace, key: tuple, compute: Callable[[], _T]) -> _T:
    """Memoise a value derived from ``trace`` on the trace instance itself,
    under ``key`` and the trace version; a foreign trace-like object
    (no ``cache_token``) computes uncached."""
    token = getattr(trace, "cache_token", None)
    if token is None:
        return compute()
    cache = getattr(trace, "_local_fold_cache", None)
    if cache is None:
        cache = trace._local_fold_cache = FOLD_CACHE.local(_local_maxsize(trace.v))
    key = (token[1],) + key
    value = cache.get(key)
    if value is None:
        value = cache.put(key, compute())
    return value


def _frozen(value: _T) -> _T:
    """Mark a cached result read-only: shared across callers, so an
    in-place mutation would silently poison every future lookup.  The
    arrays of a (nested) tuple are frozen in turn."""
    if isinstance(value, tuple):
        for item in value:
            _frozen(item)
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
    """The trace's fold table (cached per trace version).

    The kernels rely on cluster legality (a message of an i-superstep
    shares its ``i`` leading bits, ``c >= i``), so it is checked here on
    the counts rows, once per trace version, and a violating trace is
    rejected loudly rather than silently under-counted.
    """

    def compute() -> _FoldTable:
        cols = trace.columns()
        logv = ilog2(trace.v)
        S = cols.num_supersteps
        labels = cols.labels
        # frexp's exponent is the bit length (exact below 2^53).
        c = (logv - np.frexp(cols.src ^ cols.dst)[1]).astype(np.int8)
        hist = np.bincount(
            cols.superstep_index() * (logv + 1) + c, minlength=S * (logv + 1)
        ).reshape(S, logv + 1)
        counts = np.zeros((logv + 1, S), dtype=np.int64)
        np.cumsum(hist[:, :logv].T, axis=0, out=counts[1:])
        if not getattr(trace, "is_validated", False):
            high = (cols.counts > 0) & (labels >= max(logv, 1))
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
        cols = trace.columns()
        S = cols.num_supersteps
        deg = np.zeros(S, dtype=np.int64)
        if table.counts[j].any():
            p = 1 << j
            cross = table.c < j
            sidx = cols.superstep_index()[cross]
            shift = ilog2(trace.v) - j
            sp = cols.src[cross] >> shift
            dp = cols.dst[cross] >> shift
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
        keep = cols.labels < j
        F = np.bincount(cols.labels[keep], weights=deg[keep], minlength=j)
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
    table's counts row.  The folded *columns* are cached per
    ``(trace, p)`` in the trace's own memo, and every call wraps them in
    a fresh ``Trace``, so callers may append to the result without
    poisoning the cache; the shared endpoint arrays themselves are
    read-only.
    """
    logp = _check_fold(trace.v, p)

    def compute() -> tuple:
        table = _table(trace)  # legality gate, same contract as the degrees
        cols = trace.columns()
        shift = ilog2(trace.v) - logp
        ss_kept = cols.labels < logp
        msg_kept = table.c < logp
        new_counts = table.counts[logp][ss_kept]
        offsets = np.zeros(new_counts.size + 1, dtype=np.int64)
        np.cumsum(new_counts, out=offsets[1:])
        return (
            _frozen(cols.labels[ss_kept]),
            _frozen(offsets),
            _frozen(cols.src[msg_kept] >> shift),
            _frozen(cols.dst[msg_kept] >> shift),
        )

    return Trace.from_columns(p, *_trace_cached(trace, ("fold", p), compute))


# ----------------------------------------------------------------------
# Per-record reference implementations
# ----------------------------------------------------------------------
# These are the original record-by-record computations, retained verbatim
# as the oracle the vectorised kernels are property-tested against.


def fold_degrees_reference(trace: Trace, p: int) -> np.ndarray:
    """Record-by-record ``h_s(n, p)`` (oracle for :func:`fold_degrees`)."""
    _check_fold(trace.v, p)
    return np.array([rec.degree(trace.v, p) for rec in trace.records], dtype=np.int64)


def fold_message_counts_reference(trace: Trace, p: int) -> np.ndarray:
    """Record-by-record cross-message counts (oracle)."""
    _check_fold(trace.v, p)
    return np.array(
        [rec.message_count(trace.v, p) for rec in trace.records], dtype=np.int64
    )


def F_vector_reference(trace: Trace, p: int) -> np.ndarray:
    """Record-by-record ``F^i(n, p)`` (oracle for :func:`F_vector`)."""
    _check_fold(trace.v, p)
    logp = ilog2(p)
    out = np.zeros(logp, dtype=np.int64)
    if logp == 0:
        return out
    for rec in trace.records:
        if rec.label < logp:
            out[rec.label] += rec.degree(trace.v, p)
    return out


def S_vector_reference(trace: Trace, p: int) -> np.ndarray:
    """Record-by-record ``S^i(n)`` (oracle for :func:`S_vector`)."""
    _check_fold(trace.v, p)
    logp = ilog2(p)
    out = np.zeros(logp, dtype=np.int64)
    if logp == 0:
        return out
    for rec in trace.records:
        if rec.label < logp:
            out[rec.label] += 1
    return out


def fold_trace_reference(trace: Trace, p: int) -> Trace:
    """Record-by-record folded trace (oracle for :func:`fold_trace`)."""
    _check_fold(trace.v, p)
    logp = ilog2(p)
    block = trace.v // p
    folded = Trace(p)
    for rec in trace.records:
        if rec.label >= logp:
            continue
        sp = rec.src // block
        dp = rec.dst // block
        cross = sp != dp
        folded.append(rec.label, sp[cross], dp[cross])
    return folded
