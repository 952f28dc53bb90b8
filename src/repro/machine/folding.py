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

Implementation: all kernels run **whole-array** passes over the trace's
columnar image — per-(superstep, processor) message counts come from one
``np.bincount`` over fused keys (or a sort-based group-by when the dense
count grid would be large) — and results are memoised in a module-level
LRU keyed by ``(trace identity+version, p)``, since parameter sweeps
fold the same trace onto many machines.  The per-record
``SuperstepRecord.degree`` path is kept as ``*_reference`` functions and
property-tested bit-identical to the kernels.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.machine.trace import Trace, TraceColumns
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


def _check_fold(v: int, p: int) -> None:
    ilog2(p)
    if p > v:
        raise ValueError(f"cannot fold M({v}) onto a larger machine M({p})")


# ----------------------------------------------------------------------
# LRU memoisation
# ----------------------------------------------------------------------
FOLD_CACHE = LRU("fold", 512)
#: Label-sorted message contexts and folded-trace columns are O(num
#: messages) each, so they live on the trace instance itself (released
#: with it) in a small per-trace LRU sharing ``FOLD_CACHE``'s lock and
#: counters, not in the module-level cache.
_TRACE_LOCAL_MAX = 16

#: Reset the fold counters and drop the module-level entries (per-trace
#: caches are released with their traces and are not reachable).
clear_fold_cache = FOLD_CACHE.clear
#: Hit/miss/eviction counters across all fold caches (module + per-trace).
fold_cache_stats = FOLD_CACHE.stats


def _cached_in(cache: LRU, key, compute: Callable[[], object]):
    value = cache.get(key)
    if value is None:
        value = cache.put(key, compute())
    return value


def _cached(kind, trace: Trace, p: int, compute: Callable[[], object]):
    token = getattr(trace, "cache_token", None)
    if token is None:  # foreign trace-like object: compute uncached
        return compute()
    return _cached_in(FOLD_CACHE, (kind, token, p), compute)


def _trace_cached(trace: Trace, key, compute: Callable[[], object]):
    """Memoise an O(num_messages) value on the trace instance itself.

    The arrays die with the trace instead of outliving it in a module
    cache; ``key`` must include the trace version for invalidation.
    """
    cache = getattr(trace, "_local_fold_cache", None)
    if cache is None:
        try:
            cache = trace._local_fold_cache = FOLD_CACHE.local(_TRACE_LOCAL_MAX)
        except AttributeError:  # foreign trace-like object
            return compute()
    return _cached_in(cache, key, compute)


def _label_sorted(trace: Trace):
    """Messages stably sorted by superstep label (cached per trace version).

    Returns ``(lab, src, dst, sidx)`` parallel arrays.  In a cluster-legal
    trace a message of an i-superstep never crosses a fold to ``p <= 2^i``
    processors, so a fold to ``p`` only needs the prefix with
    ``lab < log p`` — located with one ``searchsorted``.

    The kernels rely on that legality, so it is checked here (once per
    trace version, amortised over every fold) and a violating trace is
    rejected loudly rather than silently under-counted.
    """

    def compute():
        cols = trace.columns()
        logv = ilog2(trace.v)
        lab = np.repeat(cols.labels, cols.counts)
        order = np.argsort(lab, kind="stable")
        lab_s = lab[order]
        src_s = cols.src[order]
        dst_s = cols.dst[order]
        fine = lab_s > 0
        if fine.any() and not getattr(trace, "is_validated", False):
            if int(lab_s[-1]) >= logv:
                raise ValueError(
                    f"cannot fold: superstep label {int(lab_s[-1])} carries "
                    f"messages but is outside [0, {logv}) for v={trace.v}"
                )
            shift = logv - lab_s[fine]
            if ((src_s[fine] >> shift) != (dst_s[fine] >> shift)).any():
                raise ValueError(
                    "cannot fold a cluster-illegal trace: some message leaves "
                    "its superstep's cluster (run trace.validate() to locate it)"
                )
        return (
            _frozen(lab_s),
            _frozen(src_s),
            _frozen(dst_s),
            _frozen(cols.superstep_index()[order]),
        )

    token = getattr(trace, "cache_token", None)
    if token is None:
        return compute()
    return _trace_cached(trace, ("lsort", token[1]), compute)


# ----------------------------------------------------------------------
# Columnar kernels
# ----------------------------------------------------------------------
def _stats_kernel(trace: Trace, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(h_s, cross-message count)`` for every superstep in one pass.

    Only the label-sorted prefix with ``label < log p`` is touched (a
    coarser superstep's messages stay inside their cluster and cannot
    cross the fold).  Processor ids come from bit shifts (``v/p`` is a
    power of two), and (superstep, processor) pairs fuse into a single
    key so one ``bincount`` yields the whole send/receive count grid;
    falls back to a sort-based group-by when the dense ``S x p`` grid
    would dwarf the message count.  Degrees and counts share the masks,
    so a sweep computing both pays for one pass.
    """
    cols = trace.columns()
    S = cols.num_supersteps
    deg = np.zeros(S, dtype=np.int64)
    cnt = np.zeros(S, dtype=np.int64)
    if cols.num_messages == 0 or p == 1:
        return deg, cnt
    logp = ilog2(p)
    lab, src, dst, sidx = _label_sorted(trace)
    end = int(np.searchsorted(lab, logp, side="left"))
    if end == 0:
        return deg, cnt
    shift = ilog2(trace.v) - logp
    sp = src[:end] >> shift
    dp = dst[:end] >> shift
    cross = sp != dp
    sidx = sidx[:end][cross]
    if sidx.size == 0:
        return deg, cnt
    sp = sp[cross]
    dp = dp[cross]
    cnt = np.bincount(sidx, minlength=S).astype(np.int64)
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
    return deg, cnt


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a cached result read-only: shared across callers, so an
    in-place mutation would silently poison every future lookup."""
    arr.setflags(write=False)
    return arr


def _fold_stats(trace: Trace, p: int) -> tuple[np.ndarray, np.ndarray]:
    def compute():
        deg, cnt = _stats_kernel(trace, p)
        return _frozen(deg), _frozen(cnt)

    return _cached("stats", trace, p, compute)


def fold_degrees(trace: Trace, p: int) -> np.ndarray:
    """Per-superstep degrees ``h_s(n, p)`` of the trace folded onto ``p``.

    Supersteps whose label is ``>= log p`` fold into local computation and
    are reported with degree 0 (they carry no cross-processor messages by
    the cluster constraint, so this is also what the arithmetic gives).
    """
    _check_fold(trace.v, p)
    return _fold_stats(trace, p)[0]


def fold_message_counts(trace: Trace, p: int) -> np.ndarray:
    """Total cross-processor messages per superstep under folding to ``p``."""
    _check_fold(trace.v, p)
    return _fold_stats(trace, p)[1]


def F_vector(trace: Trace, p: int) -> np.ndarray:
    """Cumulative degrees ``F^i(n, p)`` for ``0 <= i < log p`` (length log p).

    ``F^i(n,p) = sum over i-supersteps s of h_s(n,p)`` — Section 2.  For
    ``p = 1`` the vector is empty (a one-processor machine communicates
    nothing).
    """
    _check_fold(trace.v, p)
    logp = ilog2(p)

    def compute() -> np.ndarray:
        if logp == 0:
            return _frozen(np.zeros(0, dtype=np.int64))
        deg = fold_degrees(trace, p)
        labels = trace.columns().labels
        keep = labels < logp
        return _frozen(
            np.bincount(labels[keep], weights=deg[keep], minlength=logp)
            .astype(np.int64)
        )

    return _cached("F", trace, p, compute)


def S_vector(trace: Trace, p: int) -> np.ndarray:
    """Superstep counts ``S^i(n)`` for ``0 <= i < log p`` (length log p).

    Only labels below ``log p`` survive the fold; coarser supersteps become
    local computation on ``M(p)`` and pay no latency.
    """
    _check_fold(trace.v, p)
    logp = ilog2(p)

    def compute() -> np.ndarray:
        if logp == 0:
            return _frozen(np.zeros(0, dtype=np.int64))
        labels = trace.columns().labels
        keep = labels < logp
        return _frozen(np.bincount(labels[keep], minlength=logp).astype(np.int64))

    return _cached("S", trace, p, compute)


def fold_trace(trace: Trace, p: int, *, keep_empty: bool = True) -> Trace:
    """Materialise the folded trace on ``M(p)``.

    Message endpoints are divided by the block size ``v/p``; messages that
    became processor-local are dropped.  Supersteps with labels
    ``>= log p`` vanish (local computation).  With ``keep_empty`` (the
    default) surviving supersteps that lost all their messages are kept —
    they still cost a synchronisation on the folded machine.

    Built columnar in one pass.  The folded *columns* are cached per
    ``(trace, p, keep_empty)`` (in the small size-aware LRU — they are
    O(num_messages)), and every call wraps them in a fresh ``Trace``, so
    callers may append to the result without poisoning the cache; the
    shared endpoint arrays themselves are read-only.
    """
    _check_fold(trace.v, p)
    logp = ilog2(p)
    _label_sorted(trace)  # legality gate (cached), same contract as degrees

    def compute() -> tuple:
        cols = trace.columns()
        shift = ilog2(trace.v) - logp
        ss_kept = cols.labels < logp
        lab_per_msg = np.repeat(cols.labels, cols.counts)
        sp = cols.src >> shift
        dp = cols.dst >> shift
        msg_kept = (sp != dp) & (lab_per_msg < logp)
        counts_kept = np.bincount(
            cols.superstep_index()[msg_kept], minlength=cols.num_supersteps
        )
        if not keep_empty:
            ss_kept = ss_kept & (counts_kept > 0)
        new_counts = counts_kept[ss_kept]
        offsets = np.zeros(new_counts.size + 1, dtype=np.int64)
        np.cumsum(new_counts, out=offsets[1:])
        return (
            _frozen(cols.labels[ss_kept]),
            _frozen(offsets),
            _frozen(sp[msg_kept]),
            _frozen(dp[msg_kept]),
        )

    token = getattr(trace, "cache_token", None)
    if token is None:
        folded_cols = compute()
    else:
        folded_cols = _trace_cached(
            trace, ("fold", token[1], p, keep_empty), compute
        )
    return Trace.from_columns(p, *folded_cols)


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


def fold_trace_reference(trace: Trace, p: int, *, keep_empty: bool = True) -> Trace:
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
        if cross.any() or keep_empty:
            folded.append(rec.label, sp[cross], dp[cross])
    return folded
