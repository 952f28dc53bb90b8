"""Recording static algorithms: one ``superstep`` call per superstep.

The paper's algorithms are *static* (Section 3): for every input size the
superstep sequence, labels and message endpoint sets are fixed.  That
makes an execution a *program*, not a process — so algorithms **emit**
their communication into a :class:`ScheduleBuilder`, one
``superstep(label, src, dst)`` call per superstep carrying all of that
superstep's messages at once (or one ``supersteps`` call per CSR batch),
and ``build()`` freezes the recording into an immutable columnar
:class:`~repro.machine.trace.Trace`.  A sub-schedule that repeats is
recorded once in its own builder and appended with ``extend``, which
shares its endpoint blocks.  ``build()`` fills the trace's
:attr:`~repro.machine.trace.Trace.pattern` column from content
(:func:`~repro.machine.trace.content_pattern`), hashing each distinct
block only once.  The trace is
then validated (:meth:`~repro.machine.trace.Trace.validate`), folded and
analysed with whole-array NumPy kernels; nothing records into a trace
after it is built.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.machine.trace import Trace, check_csr, content_pattern
from repro.util.intmath import ilog2

__all__ = ["ScheduleBuilder"]

#: Ids of recorded endpoint blocks; ``extend`` copies a block's id with it.
_block_ids = itertools.count()


class ScheduleBuilder:
    """Accumulates supersteps into a :class:`~repro.machine.trace.Trace`.

    Exposes ``v`` and ``logv`` for emitters.  Only array shapes are
    checked here — ``Trace.validate`` checks labels, endpoints and
    clusters of the finished record in one pass — which keeps emission
    allocation-light.
    """

    def __init__(self, v: int) -> None:
        self.v = v
        self.logv = ilog2(v)
        self._labels: list[int] = []
        self._counts: list[int] = []
        # Endpoint blocks: one per superstep() call, one per supersteps(),
        # each with its id and its number of supersteps.
        self._srcs: list[np.ndarray] = []
        self._dsts: list[np.ndarray] = []
        self._ids: list[int] = []
        self._sizes: list[int] = []

    @property
    def num_supersteps(self) -> int:
        return len(self._labels)

    def superstep(self, label: int, src: np.ndarray, dst: np.ndarray) -> None:
        """Record one ``label``-superstep carrying messages ``src[t] -> dst[t]``."""
        # Check before converting: ascontiguousarray turns a scalar into a
        # one-message array.
        if np.ndim(src) != 1 or np.ndim(dst) != 1 or len(src) != len(dst):
            raise ValueError("src and dst must be 1-D arrays of equal length")
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        # Freeze instead of copying: the builder may hold the caller's own
        # array until build(), and silent buffer reuse would record wrong
        # endpoints — a frozen array turns that into a loud error.
        src.setflags(write=False)
        dst.setflags(write=False)
        self._labels.append(int(label))
        self._counts.append(src.size)
        self._srcs.append(src)
        self._dsts.append(dst)
        self._ids.append(next(_block_ids))
        self._sizes.append(1)

    def supersteps(
        self, labels: np.ndarray, offsets: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> None:
        """Record ``labels.size`` consecutive supersteps given in the CSR
        form of a :class:`~repro.machine.trace.Trace`: superstep ``s``
        carries ``src[offsets[s]:offsets[s+1]] -> dst[...]``."""
        labels, offsets, src, dst = (
            np.ascontiguousarray(a, dtype=np.int64) for a in (labels, offsets, src, dst)
        )
        check_csr(labels, offsets, src, dst)
        src.setflags(write=False)
        dst.setflags(write=False)
        self._labels.extend(labels.tolist())
        self._counts.extend(np.diff(offsets).tolist())
        self._srcs.append(src)
        self._dsts.append(dst)
        self._ids.append(next(_block_ids))
        self._sizes.append(labels.size)

    def extend(self, other: "ScheduleBuilder") -> None:
        """Append every superstep recorded in ``other``, in order.

        The endpoint blocks are shared, not copied: recording froze them,
        so a sub-schedule recorded once can be appended as often as the
        algorithm repeats it.
        """
        if other.v != self.v:
            raise ValueError(f"cannot extend a v={self.v} schedule with v={other.v}")
        self._labels.extend(other._labels)
        self._counts.extend(other._counts)
        self._srcs.extend(other._srcs)
        self._dsts.extend(other._dsts)
        self._ids.extend(other._ids)
        self._sizes.extend(other._sizes)

    def _pattern(
        self, offsets: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        """The built trace's ``pattern``: :func:`content_pattern` over the
        distinct blocks (a block appended again by :meth:`extend` counts
        once), each superstep mapped to the first trace position of its
        class."""
        if len(set(self._ids)) == len(self._ids):
            return content_pattern(offsets, src, dst)
        _, first, inverse = np.unique(self._ids, return_index=True, return_inverse=True)
        sizes = np.array(self._sizes, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        # Trace position of each superstep in its block's first copy.
        steps = np.arange(offsets.size - 1)
        copy_of = np.repeat(starts[first[inverse]] - starts, sizes) + steps
        at = np.flatnonzero(copy_of == steps)  # the first copies' supersteps
        doffsets = np.zeros(at.size + 1, dtype=np.int64)
        np.cumsum(np.diff(offsets)[at], out=doffsets[1:])
        distinct = np.sort(first)
        cls = content_pattern(
            doffsets,
            np.concatenate([self._srcs[b] for b in distinct]),
            np.concatenate([self._dsts[b] for b in distinct]),
        )
        rep = np.empty_like(steps)
        rep[at] = at[cls]
        return rep[copy_of]

    def build(self) -> Trace:
        """Freeze the recorded supersteps into an immutable columnar Trace."""
        n = len(self._labels)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._counts, out=offsets[1:])
        empty = np.empty(0, dtype=np.int64)
        src = np.concatenate(self._srcs) if self._srcs else empty
        dst = np.concatenate(self._dsts) if self._dsts else empty
        return Trace(
            self.v,
            np.array(self._labels, dtype=np.int64),
            offsets,
            src,
            dst,
            self._pattern(offsets, src, dst),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleBuilder(v={self.v}, supersteps={self.num_supersteps})"
