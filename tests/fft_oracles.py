"""Recursive n-FFT emitter, kept as a test oracle.

This is the emitter :mod:`repro.algorithms.fft` used before a level's
column-FFT sub-schedule was recorded once and repeated for the row FFTs
(when ``r == c``): it records every sub-FFT of every level, superstep
by superstep, moving the values as it goes.  The production emitter
must reproduce its trace column for column and its output exactly.
``run`` returns ``(trace, output)``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import SendBuffer, add_wiseness_dummies, permute_segments
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2

__all__ = ["run"]


def _fft_level(machine, val, segs, size, wise):
    """Run one recursion level on all ``size``-VP segments in lockstep."""
    v = machine.v
    if size == 1:
        return
    label = ilog2(v // size) if size < v else 0
    if size == 2:
        # Base: one butterfly across each VP pair (exchange superstep).
        buf = SendBuffer()
        buf.add(segs, segs + 1)
        buf.add(segs + 1, segs)
        if wise:
            add_wiseness_dummies(buf, v, label, 1)
        buf.flush(machine, label)
        a = val[segs].copy()
        b = val[segs + 1].copy()
        val[segs] = a + b
        val[segs + 1] = a - b
        return

    logn = ilog2(size)
    r = 1 << ((logn + 1) // 2)  # 2^{ceil(logn/2)}
    c = size // r
    offs = np.arange(size, dtype=np.int64)

    # (1) pre-permute: x[j1*c + j2] -> local j2*r + j1 (columns contiguous).
    j1, j2 = offs // c, offs % c
    permute_segments(machine, val, segs, size, label, j2 * r + j1, wise)

    # (2) column FFTs: sub-segments of r VPs.
    sub = (segs[:, None] + np.arange(c, dtype=np.int64)[None, :] * r).ravel()
    _fft_level(machine, val, sub, r, wise)

    # (3) twiddle w_size^{j2*k1}: local index o = j2*r + k1 (no messages).
    j2o, k1o = offs // r, offs % r
    tw = np.exp(-2j * np.pi * (j2o * k1o) / size)
    idx = (segs[:, None] + offs[None, :]).ravel()
    val[idx] = val[idx] * np.tile(tw, len(segs))

    # (4) transpose: local j2*r + k1 -> local k1*c + j2.
    permute_segments(machine, val, segs, size, label, k1o * c + j2o, wise)

    # (5) row FFTs: sub-segments of c VPs.
    sub = (segs[:, None] + np.arange(r, dtype=np.int64)[None, :] * c).ravel()
    _fft_level(machine, val, sub, c, wise)

    # (6) post-permute: local k1*c + k2 -> local k1 + k2*r (natural order).
    k1o2, k2o = offs // c, offs % c
    permute_segments(machine, val, segs, size, label, k1o2 + k2o * r, wise)



def run(x: np.ndarray, *, wise: bool = True):
    """Transform ``x``; return the ``(trace, output)`` of the recursive emitter."""
    n = len(x)
    builder = ScheduleBuilder(n)
    val = np.asarray(x, dtype=np.complex128).copy()
    _fft_level(builder, val, np.array([0], dtype=np.int64), n, wise)
    return builder.build(), val
