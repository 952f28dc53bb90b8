"""Superstep traces: the static communication record of an M(v) run.

A *static* algorithm (Section 3 of the paper) has, for every input size
``n``, a fixed number of supersteps, a fixed sequence of superstep labels
and a fixed set of message source/destination pairs per superstep.  A
:class:`Trace` captures exactly that data and is the single source of
truth from which every quantity in the paper is computed:

* per-superstep degrees ``h_s(n, p)`` under folding to ``p`` processors,
* cumulative degrees ``F^i_A(n, p)`` and superstep counts ``S^i_A(n)``,
* communication complexity ``H_A(n, p, sigma)``  (Eq. 1),
* communication time ``D_A(n, p, g, ell)``      (Eq. 2),
* (alpha, p)-wiseness (Def. 3.2) and (gamma, p)-fullness (Def. 5.2).

A trace is an immutable value in four frozen ``int64`` columns:
per-superstep ``labels``, CSR-style ``offsets`` (superstep ``s``'s
messages are ``src[offsets[s]:offsets[s+1]]`` / ``dst[...]``) and the
flat ``src``/``dst`` endpoint arrays, so the folding kernels run
whole-array NumPy passes with no per-superstep Python iteration.
Algorithms record one through
:class:`~repro.machine.program.ScheduleBuilder`; :meth:`Trace.superstep`
reads one superstep back as zero-copy views.

Static schedules repeat whole supersteps, so a trace also carries a
read-only :attr:`Trace.pattern` column: ``pattern[s]`` is the index of
an earlier or equal superstep with identical ``src``/``dst`` (labels are
ignored), and ``pattern[pattern[s]] == pattern[s]``, so every class of
equal supersteps has one *representative* that maps to itself.  One
routine finds it, :func:`content_pattern`: the builder runs it once over
the distinct endpoint blocks it recorded, and any other trace runs it on
its own columns on first use.  A pattern given by a caller (a fold, a
loaded file) need not join every pair of equal supersteps: two equal
representatives only cost a repeat.  Layers that price a superstep from
its content alone (validation, the fold table, dimension-order routing)
work on the representatives and gather through ``pattern``.

Traces deliberately do not store payloads: the paper's metrics are
payload-independent, and dropping values keeps traces compact enough to
analyse runs with millions of messages.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.util.intmath import ilog2, mix64

if TYPE_CHECKING:
    from repro.util.caches import LRU

__all__ = [
    "ClusterViolation",
    "Trace",
    "check_csr",
    "content_pattern",
]

#: Monotone ids distinguishing Trace instances in cross-module caches
#: (``id()`` is unsafe: it can be reused after garbage collection).
_trace_ids = itertools.count()


class ClusterViolation(ValueError):
    """A message attempted to leave its i-cluster in an i-superstep."""


def check_csr(
    labels: np.ndarray,
    offsets: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> None:
    """Raise :class:`ValueError` unless the four arrays form a CSR record.

    All four are 1-D; ``src`` and ``dst`` have one entry per message;
    ``offsets`` has ``labels.size + 1`` entries, starts at 0, never
    decreases and ends at the message count.
    """
    if any(a.ndim != 1 for a in (labels, offsets, src, dst)):
        raise ValueError("labels, offsets, src and dst must be 1-D arrays")
    if src.size != dst.size:
        raise ValueError(f"src has {src.size} messages but dst has {dst.size}")
    if offsets.size != labels.size + 1:
        raise ValueError(
            f"offsets has {offsets.size} entries, need labels.size + 1 = "
            f"{labels.size + 1}"
        )
    if offsets[0] != 0 or offsets[-1] != src.size:
        raise ValueError(
            f"offsets must run from 0 to the message count {src.size}, "
            f"got {int(offsets[0])}..{int(offsets[-1])}"
        )
    if (np.diff(offsets) < 0).any():
        raise ValueError("offsets decrease")


#: Odd 64-bit multipliers of the content hash, one per message field
#: (src, dst, place in the superstep), mixed by splitmix64's finaliser.
_K_SRC, _K_DST, _K_POS = (np.uint64(k) for k in (
    0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0xD6E8FEB86659FD93,
))


def content_pattern(
    offsets: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """The :attr:`Trace.pattern` of a CSR record, from its content.

    Each superstep is keyed by its message count and the sum of a 64-bit
    hash of each message and its place in the superstep (so the same
    messages in another order get another key); supersteps with equal
    keys map to the first of them, and every such match is then
    confirmed message by message, so a hash collision only leaves the
    later superstep its own representative.
    """
    S = offsets.size - 1
    pattern = np.arange(S, dtype=np.int64)
    if S < 2:
        return pattern
    counts = np.diff(offsets)
    with np.errstate(over="ignore"):
        h = np.arange(src.size, dtype=np.uint64)
        h -= np.repeat(offsets[:-1], counts).view(np.uint64)
        h *= _K_POS
        h += src.view(np.uint64) * _K_SRC
        h += dst.view(np.uint64) * _K_DST
        mix64(h)
        key = counts.view(np.uint64) * _K_POS
        full = np.flatnonzero(counts)
        if full.size:
            key[full] += np.add.reduceat(h, offsets[full])
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    cand = first[cls.ravel()]
    repeat = cand != pattern
    pattern[repeat] = cand[repeat]
    (moved,) = np.nonzero(repeat & (counts > 0))
    if moved.size:
        n = counts[moved]
        at = np.repeat(offsets[moved] - np.cumsum(n) + n, n) + np.arange(n.sum())
        there = at + np.repeat(offsets[cand[moved]] - offsets[moved], n)
        differ = (src[at] != src[there]) | (dst[at] != dst[there])
        if differ.any():
            bad = np.unique(np.repeat(moved, n)[differ])
            pattern[bad] = bad
    return pattern


def _column(a) -> np.ndarray:
    """``a`` as a contiguous ``int64`` array, frozen in place (no copy
    when it already is one)."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.setflags(write=False)
    return a


class Trace:
    """The full superstep trace of one M(v) execution (immutable, columnar).

    ``Trace(v, labels, offsets, src, dst)`` takes the four columns
    without copying them when they already are contiguous ``int64``
    arrays, and freezes them: they back every memoised fold result, so
    the caller hands over ownership.  The constructor is O(1) and checks
    only that ``v`` is a power of two; :meth:`validate` checks the rest.

    ``pattern`` (see :attr:`pattern`) is taken on trust from a caller
    that knows which supersteps repeat; without it the trace computes
    the column from content on first use.

    Each instance carries a fresh :attr:`cache_token` and its own fold
    memo, so two traces over the same arrays never share cached results.
    """

    def __init__(
        self,
        v: int,
        labels: np.ndarray,
        offsets: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        pattern: np.ndarray | None = None,
    ) -> None:
        ilog2(v)  # validates power of two
        self.v = v
        self.labels = _column(labels)
        self.offsets = _column(offsets)
        self.src = _column(src)
        self.dst = _column(dst)
        self._pattern = None if pattern is None else _column(pattern)
        #: Whether the trace passed :meth:`validate`; folding kernels
        #: skip their own cluster-legality pass when it did.
        self.is_validated = False
        self._uid = next(_trace_ids)
        self._sidx: np.ndarray | None = None
        #: Filled by :mod:`repro.machine.folding` on first use.
        self._local_fold_cache: LRU | None = None

    @property
    def cache_token(self) -> int:
        """Stable identity key for cross-module memoisation."""
        return self._uid

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_supersteps(self) -> int:
        return int(self.labels.size)

    @property
    def total_messages(self) -> int:
        return int(self.src.size)

    @property
    def counts(self) -> np.ndarray:
        """Messages per superstep."""
        return np.diff(self.offsets)

    @property
    def pattern(self) -> np.ndarray:
        """Per superstep, the index of its representative: an earlier or
        equal superstep with identical ``src``/``dst`` that maps to
        itself (read-only; computed from content on first use when the
        trace was built without one)."""
        if self._pattern is None:
            self._pattern = _column(content_pattern(self.offsets, self.src, self.dst))
        return self._pattern

    def superstep(self, s: int) -> tuple[int, np.ndarray, np.ndarray]:
        """``(label, src, dst)`` of superstep ``s`` (views, no copies)."""
        lo, hi = int(self.offsets[s]), int(self.offsets[s + 1])
        return int(self.labels[s]), self.src[lo:hi], self.dst[lo:hi]

    def superstep_index(self) -> np.ndarray:
        """Superstep index of every message (length ``total_messages``).

        Memoised: folding, routing and the simulator each call this, and
        the expansion is the same every time.
        """
        if self._sidx is None:
            sidx = np.repeat(
                np.arange(self.num_supersteps, dtype=np.int64), self.counts
            )
            sidx.setflags(write=False)
            self._sidx = sidx
        return self._sidx

    def label_counts(self) -> dict[int, int]:
        """``S^i(n)`` as a dict label -> number of supersteps."""
        uniq, counts = np.unique(self.labels, return_counts=True)
        return {int(l): int(c) for l, c in zip(uniq, counts)}

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the CSR shape (:func:`check_csr`), label range, the
        :attr:`pattern` invariant, endpoint bounds and the i-cluster
        constraint (a message of an i-superstep may only connect VPs
        sharing the ``i`` most significant index bits) in whole-array
        passes, then mark the trace :attr:`is_validated`.  Endpoints are
        read once per representative superstep.

        Raises :class:`ClusterViolation` for the first cluster crossing,
        :class:`ValueError` for any other violation.
        """
        v, labels, src, dst = self.v, self.labels, self.src, self.dst
        check_csr(labels, self.offsets, src, dst)
        logv = ilog2(v)
        max_label = max(1, logv)
        if labels.size and (labels.min() < 0 or labels.max() >= max_label):
            t = int(np.argmax((labels < 0) | (labels >= max_label)))
            raise ValueError(
                f"superstep {t}: label {int(labels[t])} outside [0, {max_label}) "
                f"for v={v}"
            )
        pattern, counts = self.pattern, self.counts
        if pattern.shape != labels.shape or (
            labels.size
            and (
                pattern.min() < 0
                or (pattern > np.arange(labels.size)).any()
                or (pattern[pattern] != pattern).any()
                or (counts[pattern] != counts).any()
            )
        ):
            raise ValueError(
                "pattern must map every superstep to an earlier or equal "
                "representative of the same size that maps to itself"
            )
        if src.size:
            # Lazy: folding builds on this module.
            from repro.machine.folding import _distinct

            reps, rank = _distinct(self)
            # v is a power of two: src | dst is negative iff an endpoint
            # is, and reaches v iff an endpoint does.
            ends = reps.src | reps.dst
            if ends.min() < 0 or ends.max() >= v:
                raise ValueError(f"message endpoint outside [0, {v})")
            # Endpoints share an i-cluster iff they agree above their low
            # log(v) - i bits, i.e. src ^ dst < v >> i (always, for i = 0):
            # compare each superstep's largest src ^ dst, taken once per
            # representative, with its own limit.
            xor = np.bitwise_xor(reps.src, reps.dst, out=ends)
            top = np.zeros(reps.num_supersteps, dtype=np.int64)
            full = np.flatnonzero(reps.counts)
            top[full] = np.maximum.reduceat(xor, reps.offsets[full])
            over = top[rank] >= v >> labels
            if over.any():
                s = int(np.argmax(over))
                lo, hi = int(self.offsets[s]), int(self.offsets[s + 1])
                m = lo + int(np.argmax((src[lo:hi] ^ dst[lo:hi]) >= v >> int(labels[s])))
                raise ClusterViolation(
                    f"superstep {s} (label {int(labels[s])}): message "
                    f"{int(src[m])}->{int(dst[m])} crosses its "
                    f"{int(labels[s])}-cluster boundary"
                )
        self.is_validated = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(v={self.v}, supersteps={self.num_supersteps}, "
            f"messages={self.total_messages})"
        )
