"""Recording static algorithms: one ``superstep`` call per superstep.

The paper's algorithms are *static* (Section 3): for every input size the
superstep sequence, labels and message endpoint sets are fixed.  That
makes an execution a *program*, not a process — so algorithms **emit**
their communication into a :class:`ScheduleBuilder`, one
``superstep(label, src, dst)`` call per superstep carrying all of that
superstep's messages at once, and ``build()`` freezes the recording into
an immutable columnar :class:`~repro.machine.trace.Trace`.  The trace is
then validated (:meth:`~repro.machine.trace.Trace.validate`), folded and
analysed with whole-array NumPy kernels; nothing records into a trace
after it is built.
"""

from __future__ import annotations

import numpy as np

from repro.machine.trace import Trace
from repro.util.intmath import ilog2

__all__ = ["ScheduleBuilder"]


class ScheduleBuilder:
    """Accumulates supersteps into a :class:`~repro.machine.trace.Trace`.

    Exposes ``v`` and ``logv`` for emitters.  Nothing is validated
    here — ``Trace.validate`` checks the finished record in one pass —
    which keeps emission allocation-light.
    """

    def __init__(self, v: int) -> None:
        self.v = v
        self.logv = ilog2(v)
        self._labels: list[int] = []
        self._srcs: list[np.ndarray] = []
        self._dsts: list[np.ndarray] = []

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
        self._srcs.append(src)
        self._dsts.append(dst)

    def build(self) -> Trace:
        """Freeze the recorded supersteps into an immutable columnar Trace."""
        n = len(self._labels)
        counts = np.fromiter((a.size for a in self._srcs), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        empty = np.empty(0, dtype=np.int64)
        return Trace(
            self.v,
            np.array(self._labels, dtype=np.int64),
            offsets,
            np.concatenate(self._srcs) if n else empty,
            np.concatenate(self._dsts) if n else empty,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleBuilder(v={self.v}, supersteps={self.num_supersteps})"
