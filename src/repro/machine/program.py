"""Recording static algorithms: one ``superstep`` call per superstep.

The paper's algorithms are *static* (Section 3): for every input size the
superstep sequence, labels and message endpoint sets are fixed.  That
makes an execution a *program*, not a process — so algorithms **emit**
their communication into a :class:`ScheduleBuilder`, one
``superstep(label, src, dst)`` call per superstep carrying all of that
superstep's messages at once (or one ``supersteps`` call per CSR batch),
and ``build()`` freezes the recording into an immutable columnar
:class:`~repro.machine.trace.Trace`.  A sub-schedule that repeats is
recorded once in its own builder and appended with ``extend``, and
``build()`` maps each repeat to its first copy in the trace's
:attr:`~repro.machine.trace.Trace.pattern` column, hashing the content
of each distinct endpoint array only once.  The trace is
then validated (:meth:`~repro.machine.trace.Trace.validate`), folded and
analysed with whole-array NumPy kernels; nothing records into a trace
after it is built.
"""

from __future__ import annotations

import numpy as np

from repro.machine.trace import Trace, check_csr
from repro.util.intmath import ilog2

__all__ = ["ScheduleBuilder"]


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
        # Endpoint blocks: one per superstep() call, one per supersteps().
        self._srcs: list[np.ndarray] = []
        self._dsts: list[np.ndarray] = []
        # Supersteps of each supersteps() block; None for a superstep().
        self._batches: list[int | None] = []

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
        self._batches.append(None)

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
        self._batches.append(labels.size)

    def extend(self, other: "ScheduleBuilder") -> None:
        """Append every superstep recorded in ``other``, in order.

        The endpoint arrays are shared, not copied: :meth:`superstep`
        froze them, so a sub-schedule recorded once can be appended as
        often as the algorithm repeats it.
        """
        if other.v != self.v:
            raise ValueError(f"cannot extend a v={self.v} schedule with v={other.v}")
        self._labels.extend(other._labels)
        self._counts.extend(other._counts)
        self._srcs.extend(other._srcs)
        self._dsts.extend(other._dsts)
        self._batches.extend(other._batches)

    def _pattern(self) -> np.ndarray:
        """The built trace's ``pattern``: every :meth:`superstep` maps to
        the first one with the same endpoints (keyed by array identity
        first, so a shared sub-schedule is hashed once); the supersteps
        of a :meth:`supersteps` batch map to themselves."""
        pattern = np.arange(len(self._labels), dtype=np.int64)
        by_array: dict[tuple[int, int], int] = {}
        by_content: dict[tuple[bytes, bytes], int] = {}
        s = 0
        for src, dst, batch in zip(self._srcs, self._dsts, self._batches):
            if batch is not None:
                s += batch
                continue
            rep = by_array.get((id(src), id(dst)))
            if rep is None:
                rep = by_content.setdefault((src.tobytes(), dst.tobytes()), s)
                by_array[id(src), id(dst)] = rep
            pattern[s] = rep
            s += 1
        return pattern

    def build(self) -> Trace:
        """Freeze the recorded supersteps into an immutable columnar Trace."""
        n = len(self._labels)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._counts, out=offsets[1:])
        empty = np.empty(0, dtype=np.int64)
        return Trace(
            self.v,
            np.array(self._labels, dtype=np.int64),
            offsets,
            np.concatenate(self._srcs) if self._srcs else empty,
            np.concatenate(self._dsts) if self._dsts else empty,
            self._pattern(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleBuilder(v={self.v}, supersteps={self.num_supersteps})"
