"""Shared plumbing for the Section-4 network-oblivious algorithms.

All algorithms in this package follow the same discipline:

* they are *static*: the superstep sequence, labels and message endpoint
  sets depend only on the input size;
* they **emit** their communication into a
  :class:`~repro.machine.program.ScheduleBuilder`: a director builds
  each superstep's message arrays for all VPs at once, and the built
  :class:`~repro.machine.trace.Trace` is validated in one vectorised
  pass;
* value motion is tracked in driver-held numpy arrays whose ownership
  convention mirrors the VP layout exactly — every recorded message
  corresponds to one matrix/vector entry (or a wiseness dummy) moving
  between VPs, and end-to-end output correctness is asserted against
  reference implementations in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.program import ScheduleBuilder
from repro.machine.trace import Trace

__all__ = [
    "AlgorithmResult",
    "SendBuffer",
    "add_wiseness_dummies",
    "permute_segments",
    "record_permutation",
    "wiseness_dummies",
]


@dataclass
class AlgorithmResult:
    """Base result: the specification machine trace plus metadata."""

    trace: Trace
    v: int
    n: int
    supersteps: int
    messages: int

    @classmethod
    def from_schedule(cls, trace: Trace, n: int, *, check: bool = True, **kw):
        """Wrap a built trace, validated first when ``check`` is set.

        Value motion already happened in the emitter's own arrays; the
        trace only records which messages carried it.
        """
        if check:
            trace.validate()
        return cls(
            trace=trace,
            v=trace.v,
            n=n,
            supersteps=trace.num_supersteps,
            messages=trace.total_messages,
            **kw,
        )


class SendBuffer:
    """Accumulates message endpoints for one superstep across many tasks.

    Level-synchronous recursions (all tasks of a recursion level emit into
    the *same* superstep) append per-task endpoint arrays here; ``flush``
    records the concatenated arrays as one superstep of a
    :class:`~repro.machine.program.ScheduleBuilder`.
    """

    def __init__(self) -> None:
        self._src: list[np.ndarray] = []
        self._dst: list[np.ndarray] = []

    def add(self, src: np.ndarray, dst: np.ndarray) -> None:
        if len(src):
            self._src.append(np.asarray(src, dtype=np.int64))
            self._dst.append(np.asarray(dst, dtype=np.int64))

    def flush(self, target: ScheduleBuilder, label: int) -> None:
        src = (
            np.concatenate(self._src) if self._src else np.empty(0, dtype=np.int64)
        )
        dst = (
            np.concatenate(self._dst) if self._dst else np.empty(0, dtype=np.int64)
        )
        target.superstep(label, src, dst)
        self._src.clear()
        self._dst.clear()


def wiseness_dummies(
    v: int, labels: np.ndarray, multiplicity: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The paper's wiseness dummy pattern for many supersteps at once.

    Section 4.1 (and analogously 4.2/4.3): in each ``label``-superstep,
    VP_j sends ``multiplicity`` dummy messages to VP_{j + v/2^{label+1}}
    for ``0 <= j < v/2^{label+1}`` — the first half of the first
    ``label``-cluster exercises the (label+1)-boundary at full degree, so
    the folded degree scales as ``p/2^j`` and the algorithm is
    ((1), v)-wise without changing its asymptotic cost.

    Returns ``(counts, src, dst)``: superstep ``s`` (label ``labels[s]``)
    gets ``counts[s]`` dummies, ``multiplicity[s]`` rounds over ``j``,
    contiguous and in superstep order.
    """
    half = v >> (labels + 1)
    counts = half * np.maximum(multiplicity, 0)
    step = np.repeat(np.arange(labels.size), counts)
    j = np.arange(step.size) - (np.cumsum(counts) - counts)[step]
    src = j % half[step]
    return counts, src, src + half[step]


def add_wiseness_dummies(
    buf: SendBuffer, v: int, label: int, multiplicity: int
) -> None:
    """Append one ``label``-superstep's :func:`wiseness_dummies` to a
    send buffer (the same pattern, without the batch bookkeeping)."""
    half = v >> (label + 1)
    if half == 0 or multiplicity <= 0:
        return
    src = np.tile(np.arange(half, dtype=np.int64), multiplicity)
    buf.add(src, src + half)


def record_permutation(
    builder: ScheduleBuilder,
    segs: np.ndarray,
    size: int,
    label: int,
    dest_map: np.ndarray,
    wise: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Record one ``label``-superstep moving local ``t -> dest_map[t]`` in
    every ``size``-VP segment starting at ``segs``.

    Fixed points send nothing; with ``wise`` the superstep also carries
    one :func:`add_wiseness_dummies` message per dummy sender.  Returns
    the global ``(src, dst)`` of every position, fixed points included.
    """
    offs = np.arange(size, dtype=np.int64)
    src = (segs[:, None] + offs[None, :]).ravel()
    dst = (segs[:, None] + dest_map[None, :]).ravel()
    buf = SendBuffer()
    move = src != dst
    buf.add(src[move], dst[move])
    if wise:
        add_wiseness_dummies(buf, builder.v, label, 1)
    buf.flush(builder, label)
    return src, dst


def permute_segments(
    builder: ScheduleBuilder,
    val: np.ndarray,
    segs: np.ndarray,
    size: int,
    label: int,
    dest_map: np.ndarray,
    wise: bool,
) -> None:
    """:func:`record_permutation`, moving ``val`` with it."""
    src, dst = record_permutation(builder, segs, size, label, dest_map, wise)
    new_val = val.copy()
    new_val[dst] = val[src]
    val[:] = new_val
