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

Storage is **columnar**: per-superstep ``labels``, CSR-style ``offsets``
and flat ``src``/``dst`` endpoint arrays (:class:`TraceColumns`), the
same layout as the Schedule IR, so the folding kernels run whole-array
NumPy passes with no per-record Python iteration.  The classic
record-oriented view remains available through :attr:`Trace.records`
(a live view; appending to it appends to the trace).

Traces deliberately do not store payloads: the paper's metrics are
payload-independent, and dropping values keeps traces compact enough to
analyse runs with millions of messages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.util.intmath import ilog2

__all__ = [
    "ClusterViolation",
    "SuperstepRecord",
    "Trace",
    "TraceColumns",
    "assemble_columns",
    "check_csr",
    "validate_columns",
]

#: Monotone ids distinguishing Trace instances in cross-module caches
#: (``id()`` is unsafe: it can be reused after garbage collection).
_trace_ids = itertools.count()


class ClusterViolation(ValueError):
    """A message attempted to leave its i-cluster in an i-superstep."""


@dataclass(frozen=True)
class SuperstepRecord:
    """One superstep: its label and the message endpoints it carried.

    ``src``/``dst`` are parallel ``int64`` arrays — entry ``t`` records a
    constant-size message from VP ``src[t]`` to VP ``dst[t]``.  Multiple
    messages between the same pair appear multiple times, matching the
    paper's message-count semantics.

    The per-record :meth:`degree`/:meth:`message_count` are the *reference
    implementations* of the folded quantities; the production kernels in
    :mod:`repro.machine.folding` operate on whole :class:`TraceColumns`
    and are property-tested bit-identical against these.
    """

    label: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def num_messages(self) -> int:
        return int(self.src.shape[0])

    def degree(self, v: int, p: int) -> int:
        """Degree ``h_s(n, p)`` of this superstep folded onto ``p`` processors.

        Under folding, processor ``r`` of ``M(p)`` carries VPs
        ``[r*(v/p), (r+1)*(v/p))``; only messages crossing a processor
        boundary are communicated.  The degree is the maximum over
        processors of messages sent *or* received (the h of the
        h-relation, Section 2).
        """
        block = v // p
        if block == 0:
            raise ValueError(f"cannot fold v={v} onto p={p} > v")
        sp = self.src // block
        dp = self.dst // block
        cross = sp != dp
        if not cross.any():
            return 0
        sent = np.bincount(sp[cross], minlength=p)
        recv = np.bincount(dp[cross], minlength=p)
        return int(max(sent.max(), recv.max()))

    def message_count(self, v: int, p: int) -> int:
        """Total number of cross-processor messages under folding to ``p``."""
        block = v // p
        return int(np.count_nonzero(self.src // block != self.dst // block))


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """The flat columnar image of a trace (shared layout with Schedule).

    ``labels`` has one entry per superstep; superstep ``s``'s messages
    are ``src[offsets[s]:offsets[s+1]]`` / ``dst[...]``.
    """

    labels: np.ndarray
    offsets: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    @property
    def num_supersteps(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_messages(self) -> int:
        return int(self.offsets[-1]) if self.offsets.size else 0

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def superstep_index(self) -> np.ndarray:
        """Superstep index of every message (length ``num_messages``).

        Memoised: folding kernels call this once per fold target, and the
        expansion is the same every time (the dataclass is frozen).
        """
        cached = getattr(self, "_sidx", None)
        if cached is None:
            cached = np.repeat(
                np.arange(self.num_supersteps, dtype=np.int64), self.counts
            )
            object.__setattr__(self, "_sidx", cached)
        return cached


def assemble_columns(
    labels: list[int],
    srcs: list[np.ndarray],
    dsts: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assemble per-superstep chunks into flat CSR columns.

    The one CSR construction shared by :meth:`Trace.columns` and
    ``ScheduleBuilder.build`` — both feed the same folding kernels, so
    the layout convention lives in exactly one place.
    """
    n = len(labels)
    counts = np.fromiter((a.size for a in srcs), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
    return np.array(labels, dtype=np.int64), offsets, src, dst


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


def validate_columns(
    v: int,
    labels: np.ndarray,
    offsets: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> None:
    """Vectorised validation of a columnar superstep record on ``M(v)``.

    Checks the CSR shape (:func:`check_csr`), label range, endpoint
    bounds and the i-cluster constraint (a message of an i-superstep may
    only connect VPs sharing the ``i`` most significant index bits) in
    whole-array passes.  Raises
    :class:`ClusterViolation` for cluster crossings, :class:`ValueError`
    otherwise.
    """
    logv = ilog2(v)
    check_csr(labels, offsets, src, dst)
    max_label = max(1, logv)
    if labels.size and (labels.min() < 0 or labels.max() >= max_label):
        t = int(np.argmax((labels < 0) | (labels >= max_label)))
        raise ValueError(
            f"superstep {t}: label {int(labels[t])} outside [0, {max_label}) "
            f"for v={v}"
        )
    if src.size == 0:
        return
    if src.min() < 0 or dst.min() < 0 or src.max() >= v or dst.max() >= v:
        raise ValueError(f"message endpoint outside [0, {v})")
    lab = np.repeat(labels, np.diff(offsets))
    fine = lab > 0
    if not fine.any():
        return
    shift = logv - lab[fine]
    bad = (src[fine] >> shift) != (dst[fine] >> shift)
    if bad.any():
        m = int(np.flatnonzero(fine)[np.argmax(bad)])
        s = int(np.searchsorted(offsets, m, side="right")) - 1
        raise ClusterViolation(
            f"superstep {s} (label {int(labels[s])}): message "
            f"{int(src[m])}->{int(dst[m])} crosses its "
            f"{int(labels[s])}-cluster boundary"
        )


class _RecordsView:
    """Live record-oriented view of a trace (list-compatible).

    Iteration/indexing materialise :class:`SuperstepRecord` objects whose
    arrays are views into the trace storage; ``append``/``extend`` write
    through to the trace.
    """

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.num_supersteps

    def __getitem__(self, i):
        t = self._trace
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return SuperstepRecord(t._labels[i], t._srcs[i], t._dsts[i])

    def __iter__(self):
        t = self._trace
        for label, src, dst in zip(t._labels, t._srcs, t._dsts):
            yield SuperstepRecord(label, src, dst)

    def __bool__(self) -> bool:
        return len(self) > 0

    def append(self, rec: SuperstepRecord) -> None:
        self._trace.append(rec.label, rec.src, rec.dst)

    def extend(self, recs: Iterable[SuperstepRecord]) -> None:
        for rec in recs:
            self.append(rec)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<records view of {self._trace!r}>"


class Trace:
    """The full superstep trace of one M(v) execution (columnar storage).

    Parameters
    ----------
    v:
        Number of processing elements of the machine the trace was
        recorded on (a power of two).
    records:
        Optional initial :class:`SuperstepRecord` sequence.
    """

    def __init__(self, v: int, records: Iterable[SuperstepRecord] | None = None) -> None:
        ilog2(v)  # validates power of two
        self.v = v
        self._labels: list[int] = []
        self._srcs: list[np.ndarray] = []
        self._dsts: list[np.ndarray] = []
        self._cols: TraceColumns | None = None
        self._uid = next(_trace_ids)
        self._version = 0
        self._valid_version = -1  # version last proven cluster-legal
        if records is not None:
            for rec in records:
                self.append(rec.label, rec.src, rec.dst)

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    def columns(self) -> TraceColumns:
        """The flat columnar image (cached; rebuilt after mutation).

        The returned arrays are read-only: they back every memoised fold
        result, and an in-place edit would bypass the version-based cache
        invalidation (mutate the trace through ``append``/``extend``).
        """
        if self._cols is None:
            cols = TraceColumns(
                *assemble_columns(self._labels, self._srcs, self._dsts)
            )
            for arr in (cols.labels, cols.offsets, cols.src, cols.dst):
                arr.setflags(write=False)
            self._cols = cols
        return self._cols

    @classmethod
    def from_columns(
        cls,
        v: int,
        labels: np.ndarray,
        offsets: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> "Trace":
        """Build a trace directly from columnar arrays (no copies).

        The per-record chunks become views into the flat arrays and the
        columnar cache is pre-seeded, so ``columns()`` is free.  The
        arrays are marked read-only (see :meth:`columns`): the caller —
        a Schedule, a fold, a loaded file — hands over ownership.
        """
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        for arr in (labels, offsets, src, dst):
            arr.setflags(write=False)
        trace = cls(v)
        trace._labels = [int(l) for l in labels]
        trace._srcs = [
            src[offsets[s] : offsets[s + 1]] for s in range(labels.size)
        ]
        trace._dsts = [
            dst[offsets[s] : offsets[s + 1]] for s in range(labels.size)
        ]
        trace._cols = TraceColumns(labels, offsets, src, dst)
        return trace

    @property
    def cache_token(self) -> tuple[int, int]:
        """Stable identity+version key for cross-module memoisation."""
        return (self._uid, self._version)

    @property
    def is_validated(self) -> bool:
        """Whether the current contents passed :meth:`validate`.

        Folding kernels use this to skip their own cluster-legality pass
        when the trace was already validated (e.g. by
        ``Schedule.to_trace(validate=True)``).
        """
        return self._valid_version == self._version

    def _invalidate(self) -> None:
        self._cols = None
        self._version += 1

    # ------------------------------------------------------------------
    # Basic shape quantities
    # ------------------------------------------------------------------
    @property
    def num_supersteps(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> np.ndarray:
        return self.columns().labels

    @property
    def total_messages(self) -> int:
        return int(sum(a.size for a in self._srcs))

    @property
    def records(self) -> _RecordsView:
        return _RecordsView(self)

    def label_counts(self) -> dict[int, int]:
        """``S^i(n)`` as a dict label -> number of supersteps."""
        labels = self.columns().labels
        if labels.size == 0:
            return {}
        uniq, counts = np.unique(labels, return_counts=True)
        return {int(l): int(c) for l, c in zip(uniq, counts)}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def append(self, label: int, src: np.ndarray, dst: np.ndarray) -> None:
        # Copy, then freeze: aliasing a caller's buffer (or handing a
        # writable chunk back out through the records view) would let
        # in-place mutation bypass the version-based cache invalidation.
        src = np.array(src, dtype=np.int64, copy=True)
        dst = np.array(dst, dtype=np.int64, copy=True)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        src.setflags(write=False)
        dst.setflags(write=False)
        self._labels.append(int(label))
        self._srcs.append(src)
        self._dsts.append(dst)
        self._invalidate()

    def extend(self, other: "Trace") -> None:
        if other.v != self.v:
            raise ValueError(f"cannot merge traces on v={self.v} and v={other.v}")
        self._labels.extend(other._labels)
        self._srcs.extend(other._srcs)
        self._dsts.extend(other._dsts)
        self._invalidate()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every message obeys the i-superstep cluster constraint.

        One vectorised pass over the columnar image (see
        :func:`validate_columns`); raises on the first violation.
        """
        cols = self.columns()
        validate_columns(self.v, cols.labels, cols.offsets, cols.src, cols.dst)
        self._valid_version = self._version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(v={self.v}, supersteps={self.num_supersteps}, "
            f"messages={self.total_messages})"
        )
