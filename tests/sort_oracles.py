"""Recursive Columnsort emitter, kept as a test oracle.

This is the emitter :mod:`repro.algorithms.sorting` used before each
level's column-sort sub-schedule was recorded once and repeated: it
records all four column sorts of every level, base sort by base sort and
permutation by permutation, moving the keys as it goes.  The production
emitter must reproduce its trace column for column and its output
exactly.  ``run`` returns ``(trace, output)``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import SendBuffer, add_wiseness_dummies, permute_segments
from repro.algorithms.sorting import BASE_SIZE, columnsort_shape
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2

__all__ = ["run"]


def _base_sort(machine, val, segs, size, label, wise):
    """Sort constant-size segments by one all-to-all superstep each."""
    if size > 1:
        offs = np.arange(size, dtype=np.int64)
        src = np.repeat(offs, size - 1)
        dst = np.concatenate([np.delete(offs, t) for t in range(size)])
        buf = SendBuffer()
        buf.add(
            (segs[:, None] + src[None, :]).ravel(),
            (segs[:, None] + dst[None, :]).ravel(),
        )
        if wise:
            add_wiseness_dummies(buf, machine.v, label, 1)
        buf.flush(machine, label)
    idx = segs[:, None] + np.arange(size, dtype=np.int64)[None, :]
    val[idx.ravel()] = np.sort(val[idx], axis=1).ravel()


def _sort_level(machine, val, segs, size, wise):
    """Sort all ``size``-VP segments in lockstep (recursive Columnsort)."""
    v = machine.v
    label = ilog2(v // size) if size < v else 0
    if size <= BASE_SIZE:
        _base_sort(machine, val, segs, size, label, wise)
        return

    r, s = columnsort_shape(size)
    if s < 2:  # degenerate shape: treat the whole segment as one column
        _base_sort(machine, val, segs, size, label, wise)
        return
    cols = (segs[:, None] + np.arange(s, dtype=np.int64)[None, :] * r).ravel()
    f = np.arange(size, dtype=np.int64)

    def sort_columns():
        _sort_level(machine, val, cols, r, wise)

    sort_columns()                                          # phase 1
    permute_segments(machine, val, segs, size, label,
                     (f % s) * r + f // s, wise)            # phase 2 transpose
    sort_columns()                                          # phase 3
    permute_segments(machine, val, segs, size, label,
                     (f % r) * s + f // r, wise)            # phase 4 untranspose
    sort_columns()                                          # phase 5
    permute_segments(machine, val, segs, size, label,
                     (f + r // 2) % size, wise)             # phase 6 cyclic shift
    sort_columns()                                          # phase 7
    # Footnote 6: modified order on column 0 == swap its halves.
    half = f.copy()
    half[: r // 2] = f[: r // 2] + r // 2
    half[r // 2 : r] = f[r // 2 : r] - r // 2
    permute_segments(machine, val, segs, size, label, half, wise)
    permute_segments(machine, val, segs, size, label,
                     (f - r // 2) % size, wise)             # phase 8 unshift


def run(keys: np.ndarray, *, wise: bool = True):
    """Sort ``keys``; return the ``(trace, output)`` of the recursive emitter."""
    keys = np.asarray(keys)
    n = keys.shape[0]
    ilog2(n)
    builder = ScheduleBuilder(n)
    val = keys.astype(np.float64, copy=True) if keys.dtype.kind in "iu" else keys.copy()
    _sort_level(builder, val, np.array([0], dtype=np.int64), n, wise)
    return builder.build(), val
