"""The columnar Schedule IR: static algorithms as compiled programs.

The paper's algorithms are *static* (Section 3): for every input size the
superstep sequence, labels and message endpoint sets are fixed.  That
makes an execution a *program*, not a process — so instead of driving
:class:`~repro.machine.engine.Machine` imperatively one superstep at a
time, algorithms **emit** a :class:`Schedule`: a columnar intermediate
representation holding

* ``labels``   — one ``int64`` per superstep,
* ``offsets``  — CSR-style message offsets (``offsets[s]:offsets[s+1]``
  delimits superstep ``s``'s messages in the flat arrays),
* ``src``/``dst`` — the concatenated message endpoints, and
* ``payload``  — an optional callback supplying value payloads per
  superstep for value-level (delivering) executions.

A schedule is compiled once and can then be executed, validated, folded
and analysed with whole-array NumPy kernels — schedule reuse is exactly
what makes oblivious approaches pay off in practice, and the columnar
layout is what later PRs shard across workers or hand to other backends.

Construction goes through :class:`ScheduleBuilder`, which is
call-compatible with ``Machine.superstep`` so existing director-style
algorithm code records instead of executes.  Execution is
:func:`repro.machine.engine.execute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.machine.trace import (
    ClusterViolation,
    Trace,
    assemble_columns,
    validate_columns,
)
from repro.util.intmath import ilog2

__all__ = ["Schedule", "ScheduleBuilder", "compile_schedule"]


def parse_sends(
    sends: Iterable[tuple[int, int, Any]],
    src_arr: np.ndarray | None,
    dst_arr: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, list[Any] | None]:
    """Normalise one superstep's message specification.

    Shared by ``Machine.superstep`` and ``ScheduleBuilder.superstep`` so
    the two entry points cannot drift apart: either payload-carrying
    ``(src, dst, payload)`` triples, or pre-built endpoint arrays
    (payload-free).  Returns ``(src, dst, payloads)``.
    """
    if src_arr is not None or dst_arr is not None:
        if src_arr is None or dst_arr is None:
            raise ValueError("src_arr and dst_arr must be given together")
        src = np.ascontiguousarray(src_arr, dtype=np.int64)
        dst = np.ascontiguousarray(dst_arr, dtype=np.int64)
        payloads: list[Any] | None = None
    else:
        triples = list(sends)
        src = np.fromiter((t[0] for t in triples), dtype=np.int64, count=len(triples))
        dst = np.fromiter((t[1] for t in triples), dtype=np.int64, count=len(triples))
        payloads = [t[2] for t in triples]
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be 1-D arrays of equal length")
    return src, dst, payloads


@dataclass(frozen=True, eq=False)
class Schedule:
    """Columnar IR of one static algorithm run on ``M(v)``.

    Immutable; all arrays are ``int64``.  ``payload``, when given, maps a
    superstep index to the sequence of payloads (aligned with that
    superstep's slice of ``src``/``dst``) to deliver in value-level
    executions; metric-only executions never invoke it.
    """

    v: int
    labels: np.ndarray
    offsets: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    payload: Callable[[int], Sequence[Any]] | None = None

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
        trace = Trace.from_columns(
            self.v, self.labels, self.offsets, self.src, self.dst
        )
        if validate:
            trace.validate()  # marks the trace, so folds skip their own check
        return trace

    @staticmethod
    def concat(schedules: Sequence["Schedule"]) -> "Schedule":
        """Concatenate schedules on the same ``v`` in sequence order.

        Payload callbacks are preserved: superstep indices are remapped
        into the input schedule they came from.
        """
        if not schedules:
            raise ValueError("need at least one schedule")
        v = schedules[0].v
        if any(s.v != v for s in schedules):
            raise ValueError("cannot concatenate schedules on different v")
        parts = list(schedules)
        labels = np.concatenate([s.labels for s in parts])
        counts = np.concatenate([s.counts for s in parts])
        offsets = np.zeros(labels.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        src = np.concatenate([s.src for s in parts])
        dst = np.concatenate([s.dst for s in parts])
        payload = None
        if any(s.payload is not None for s in parts):
            starts = np.cumsum([0] + [s.num_supersteps for s in parts])

            def payload(i: int) -> Sequence[Any]:
                k = int(np.searchsorted(starts, i, side="right")) - 1
                sub = parts[k]
                return sub.payload(i - int(starts[k])) if sub.payload else ()

        return Schedule(v, labels, offsets, src, dst, payload=payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(v={self.v}, supersteps={self.num_supersteps}, "
            f"messages={self.num_messages})"
        )


class ScheduleBuilder:
    """Accumulates supersteps into a :class:`Schedule`.

    Drop-in for the recording half of :class:`~repro.machine.engine.Machine`:
    it exposes ``v``, ``logv`` and a ``superstep`` method with the same
    signature, so director-style algorithm code emits IR unchanged.
    Nothing is validated or executed here — that is the engine's job —
    which keeps emission allocation-light.
    """

    def __init__(self, v: int) -> None:
        self.v = v
        self.logv = ilog2(v)
        self._labels: list[int] = []
        self._srcs: list[np.ndarray] = []
        self._dsts: list[np.ndarray] = []
        self._payloads: list[list[Any] | None] = []

    @property
    def num_supersteps(self) -> int:
        return len(self._labels)

    def superstep(
        self,
        label: int,
        sends: Iterable[tuple[int, int, Any]] = (),
        *,
        src_arr: np.ndarray | None = None,
        dst_arr: np.ndarray | None = None,
    ) -> None:
        """Record one superstep (``Machine.superstep``-compatible).

        Either ``sends`` (triples carrying payloads) or the pre-built
        ``src_arr``/``dst_arr`` endpoint arrays (payload-free).
        """
        src, dst, payloads = parse_sends(sends, src_arr, dst_arr)
        # Freeze instead of copying: the builder may hold the caller's own
        # array until build(), and silent buffer reuse would record wrong
        # endpoints — a frozen array turns that into a loud error.
        src.setflags(write=False)
        dst.setflags(write=False)
        self._labels.append(int(label))
        self._srcs.append(src)
        self._dsts.append(dst)
        self._payloads.append(payloads)

    def add_superstep(self, label: int, src: np.ndarray, dst: np.ndarray) -> None:
        """Endpoint-array shorthand for :meth:`superstep`."""
        self.superstep(label, (), src_arr=src, dst_arr=dst)

    def build(self) -> Schedule:
        """Freeze the recorded supersteps into an immutable Schedule."""
        labels, offsets, src, dst = assemble_columns(
            self._labels, self._srcs, self._dsts
        )
        payload = None
        if any(p is not None for p in self._payloads):
            recorded = list(self._payloads)

            def payload(s: int, _recorded=recorded) -> Sequence[Any]:
                return _recorded[s] or ()

        return Schedule(self.v, labels, offsets, src, dst, payload=payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleBuilder(v={self.v}, supersteps={self.num_supersteps})"


def compile_schedule(v: int, emit: Callable[[ScheduleBuilder], None]) -> Schedule:
    """Compile an emitter function into a Schedule.

    ``emit`` receives a fresh :class:`ScheduleBuilder` for ``M(v)`` and
    records its supersteps; the finished IR is returned.  This is the
    one-shot "compile" half of the engine's compile/execute split.
    """
    builder = ScheduleBuilder(v)
    emit(builder)
    return builder.build()
