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


def add_wiseness_dummies(
    buf: SendBuffer, v: int, label: int, multiplicity: int
) -> None:
    """Append the paper's wiseness dummy pattern to a send buffer.

    Section 4.1 (and analogously 4.2/4.3): in each ``label``-superstep,
    VP_j sends ``multiplicity`` dummy messages to VP_{j + v/2^{label+1}}
    for ``0 <= j < v/2^{label+1}`` — the first half of the first
    ``label``-cluster exercises the (label+1)-boundary at full degree, so
    the folded degree scales as ``p/2^j`` and the algorithm is
    ((1), v)-wise without changing its asymptotic cost.
    """
    half = v >> (label + 1)
    if half == 0 or multiplicity <= 0:
        return
    j = np.arange(half, dtype=np.int64)
    src = np.tile(j, multiplicity)
    buf.add(src, src + half)


def permute_segments(
    builder: ScheduleBuilder,
    val: np.ndarray,
    segs: np.ndarray,
    size: int,
    label: int,
    dest_map: np.ndarray,
    wise: bool,
) -> None:
    """One ``label``-superstep moving local ``t -> dest_map[t]`` in every
    ``size``-VP segment starting at ``segs``, and ``val`` with it.

    Fixed points send nothing; with ``wise`` the superstep also carries
    one :func:`add_wiseness_dummies` message per dummy sender.
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
    new_val = val.copy()
    new_val[dst] = val[src]
    val[:] = new_val
