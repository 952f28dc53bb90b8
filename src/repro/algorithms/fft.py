"""Network-oblivious FFT (Section 4.2).

The n-FFT problem evaluates the n-input FFT DAG.  The network-oblivious
algorithm is specified on ``M(n)`` (one VP per input) and exploits the
classical decomposition of the FFT DAG into two layers of ``sqrt(n)``-input
sub-DAGs (Aggarwal et al. '87; equivalently the Cooley–Tukey /
"four-step" factorisation): with ``n = r*c``, ``j = j1*c + j2``,
``k = k1 + k2*r``::

    X[k1 + k2*r] = sum_{j2} w_n^{j2*k1} w_c^{j2*k2}
                   ( sum_{j1} x[j1*c + j2] * w_r^{j1*k1} )

Each recursion level runs, inside every size-N segment (label
``log(v/N)`` supersteps, degree O(1) per VP):

1. a *pre-permutation* making each column ``j2`` contiguous on a
   sub-segment of ``r`` VPs,
2. recursive r-point FFTs on the columns,
3. a local twiddle multiplication ``w_N^{j2*k1}``,
4. the *transposition* permutation of the r x c matrix (the paper's
   0-superstep at the top level),
5. recursive c-point FFTs on the rows, and
6. a *post-permutation* restoring natural output order ``X[k]`` at
   VP ``seg + k``.

For ``n = 2^{2^k}`` the labels are exactly the paper's
``(1 - 1/2^i) log n``; general powers of two use ``r = 2^{ceil(log n/2)}``
(the paper's remark at the end of Section 4.2).  Communication
complexity: ``H_FFT(n,p,sigma) = O((n/p + sigma) log n / log(n/p))``
(Theorem 4.5), Theta(1)-optimal by Lemma 4.4, and Theta(1)-optimal on
admissible D-BSPs (Corollary 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms._common import (
    AlgorithmResult,
    SendBuffer,
    add_wiseness_dummies,
    permute_segments,
)
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2

__all__ = ["run", "FFTResult"]


@dataclass
class FFTResult(AlgorithmResult):
    """Result of the network-oblivious n-FFT run."""

    output: np.ndarray = None  # X[k] in natural order


def _permute(machine, val, segs, size, label, dest_map, wise):
    """:func:`permute_segments`, or only the value motion when
    ``machine`` is ``None`` (the superstep is recorded elsewhere)."""
    if machine is not None:
        permute_segments(machine, val, segs, size, label, dest_map, wise)
        return
    new_val = val.copy()
    new_val[(segs[:, None] + dest_map[None, :]).ravel()] = val[
        (segs[:, None] + np.arange(size, dtype=np.int64)[None, :]).ravel()
    ]
    val[:] = new_val


def _fft_level(machine, val, segs, size, wise):
    """Run one recursion level on all ``size``-VP segments in lockstep.

    ``machine`` is the :class:`ScheduleBuilder` recording the level, or
    ``None`` to move the values through a level recorded elsewhere.
    """
    if size == 1:
        return
    if size == 2:
        # Base: one butterfly across each VP pair (exchange superstep).
        if machine is not None:
            v = machine.v
            label = ilog2(v // size) if size < v else 0
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

    label = None
    if machine is not None:
        label = ilog2(machine.v // size) if size < machine.v else 0
    logn = ilog2(size)
    r = 1 << ((logn + 1) // 2)  # 2^{ceil(logn/2)}
    c = size // r
    offs = np.arange(size, dtype=np.int64)

    # (1) pre-permute: x[j1*c + j2] -> local j2*r + j1 (columns contiguous).
    j1, j2 = offs // c, offs % c
    _permute(machine, val, segs, size, label, j2 * r + j1, wise)

    # (2) column FFTs: sub-segments of r VPs.  When r == c the row FFTs
    # of (5) run on the same sub-segments: record them once.
    sub = (segs[:, None] + np.arange(c, dtype=np.int64)[None, :] * r).ravel()
    once = machine is not None and r == c
    if once:
        cols = ScheduleBuilder(machine.v)
        _fft_level(cols, val, sub, r, wise)
        machine.extend(cols)
    else:
        _fft_level(machine, val, sub, r, wise)

    # (3) twiddle w_size^{j2*k1}: local index o = j2*r + k1 (no messages).
    j2o, k1o = offs // r, offs % r
    tw = np.exp(-2j * np.pi * (j2o * k1o) / size)
    idx = (segs[:, None] + offs[None, :]).ravel()
    val[idx] = val[idx] * np.tile(tw, len(segs))

    # (4) transpose: local j2*r + k1 -> local k1*c + j2.
    _permute(machine, val, segs, size, label, k1o * c + j2o, wise)

    # (5) row FFTs: sub-segments of c VPs.
    sub = (segs[:, None] + np.arange(r, dtype=np.int64)[None, :] * c).ravel()
    if once:
        _fft_level(None, val, sub, c, wise)
        machine.extend(cols)
    else:
        _fft_level(machine, val, sub, c, wise)

    # (6) post-permute: local k1*c + k2 -> local k1 + k2*r (natural order).
    k1o2, k2o = offs // c, offs % c
    _permute(machine, val, segs, size, label, k1o2 + k2o * r, wise)


def run(x: np.ndarray, *, wise: bool = True) -> FFTResult:
    """Compute the DFT of ``x`` with the network-oblivious n-FFT algorithm.

    ``x`` must have power-of-two length >= 2; the result's ``output``
    matches ``numpy.fft.fft(x)`` and its ``trace`` is the specification
    trace on ``M(n)`` (VP ``j`` holds ``x[j]``, VP ``k`` ends with ``X[k]``).
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    ilog2(n)
    if n < 2:
        raise ValueError("n-FFT needs n >= 2")
    builder = ScheduleBuilder(n)
    val = x.copy()
    _fft_level(builder, val, np.array([0], dtype=np.int64), n, wise)
    return FFTResult.from_schedule(builder.build(), n, output=val)


# ----------------------------------------------------------------------
# Registry spec (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import AlgorithmSpec, register  # noqa: E402


def _api_check(n: int, *, wise: bool = True) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"n-FFT needs power-of-two n >= 2, got n={n}")


def _api_emit(n: int, rng, *, wise: bool = True) -> FFTResult:
    x = rng.random(n) + 1j * rng.random(n)
    result = run(x, wise=wise)
    result.oracle_input = x  # adapt computes the reference lazily
    return result


def _api_adapt(result: FFTResult) -> dict:
    x = getattr(result, "oracle_input", None)
    if x is None:  # result not emitted through the registry
        return {}
    return {"correct": bool(np.allclose(result.output, np.fft.fft(x)))}


register(
    AlgorithmSpec(
        name="fft",
        summary="n-FFT, recursive sqrt-decomposition",
        kind="oblivious",
        section="4.2",
        emit=_api_emit,
        check=_api_check,
        adapt=_api_adapt,
        default_sizes=(256, 1024, 4096),
    )
)
