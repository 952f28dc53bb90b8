"""The columnar Schedule IR: static algorithms as compiled programs.

The paper's algorithms are *static* (Section 3): for every input size the
superstep sequence, labels and message endpoint sets are fixed.  That
makes an execution a *program*, not a process — so algorithms **emit** a
:class:`Schedule`: a columnar intermediate representation holding

* ``labels``   — one ``int64`` per superstep,
* ``offsets``  — CSR-style message offsets (``offsets[s]:offsets[s+1]``
  delimits superstep ``s``'s messages in the flat arrays), and
* ``src``/``dst`` — the concatenated message endpoints.

A schedule is compiled once and can then be validated, folded and
analysed with whole-array NumPy kernels — schedule reuse is exactly what
makes oblivious approaches pay off in practice.

Recording goes through :class:`ScheduleBuilder`, one
``superstep(label, src, dst)`` call per superstep; ``build()`` freezes
the IR and ``to_trace(validate=True)`` lowers it to a checked
:class:`~repro.machine.trace.Trace` in one whole-array pass
(:func:`~repro.machine.trace.validate_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.machine.trace import (
    Trace,
    assemble_columns,
    check_csr,
    validate_columns,
)
from repro.util.intmath import ilog2

__all__ = ["Schedule", "ScheduleBuilder"]


@dataclass(frozen=True, eq=False)
class Schedule:
    """Columnar IR of one static algorithm run on ``M(v)``.

    Immutable; all arrays are ``int64``.
    """

    v: int
    labels: np.ndarray
    offsets: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_supersteps(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_messages(self) -> int:
        return int(self.offsets[-1]) if self.offsets.size else 0

    @property
    def counts(self) -> np.ndarray:
        """Messages per superstep."""
        return np.diff(self.offsets)

    def superstep(self, s: int) -> tuple[int, np.ndarray, np.ndarray]:
        """``(label, src, dst)`` of superstep ``s`` (views, no copies)."""
        lo, hi = int(self.offsets[s]), int(self.offsets[s + 1])
        return int(self.labels[s]), self.src[lo:hi], self.dst[lo:hi]

    # ------------------------------------------------------------------
    # Verification / lowering
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Whole-array validation of labels, bounds and cluster constraints.

        Vectorised bit-shift masks over the flat endpoint arrays — one
        pass regardless of the number of supersteps.  Raises
        :class:`~repro.machine.trace.ClusterViolation` on the first
        cluster-crossing message.
        """
        validate_columns(self.v, self.labels, self.offsets, self.src, self.dst)

    def to_trace(self, *, validate: bool = False) -> Trace:
        """Lower to a :class:`Trace` (zero-copy: the trace shares arrays)."""
        if validate:  # the shape first: from_columns slices by offsets
            check_csr(self.labels, self.offsets, self.src, self.dst)
        trace = Trace.from_columns(
            self.v, self.labels, self.offsets, self.src, self.dst
        )
        if validate:
            trace.validate()  # marks the trace, so folds skip their own check
        return trace

    @staticmethod
    def concat(schedules: Sequence["Schedule"]) -> "Schedule":
        """Concatenate schedules on the same ``v`` in sequence order."""
        if not schedules:
            raise ValueError("need at least one schedule")
        v = schedules[0].v
        if any(s.v != v for s in schedules):
            raise ValueError("cannot concatenate schedules on different v")
        labels = np.concatenate([s.labels for s in schedules])
        counts = np.concatenate([s.counts for s in schedules])
        offsets = np.zeros(labels.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        src = np.concatenate([s.src for s in schedules])
        dst = np.concatenate([s.dst for s in schedules])
        return Schedule(v, labels, offsets, src, dst)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(v={self.v}, supersteps={self.num_supersteps}, "
            f"messages={self.num_messages})"
        )


class ScheduleBuilder:
    """Accumulates supersteps into a :class:`Schedule`.

    Exposes ``v`` and ``logv`` for emitters.  Nothing is validated
    here — ``Schedule.validate``/``to_trace(validate=True)`` check the
    finished IR in one pass — which keeps emission allocation-light.
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

    def build(self) -> Schedule:
        """Freeze the recorded supersteps into an immutable Schedule."""
        return Schedule(
            self.v, *assemble_columns(self._labels, self._srcs, self._dsts)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleBuilder(v={self.v}, supersteps={self.num_supersteps})"
