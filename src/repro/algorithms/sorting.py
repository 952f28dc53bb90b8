"""Network-oblivious sorting (Section 4.3): recursive Columnsort.

The n-sort problem ranks ``n`` distinct keys by comparisons.  The
network-oblivious algorithm implements Leighton's Columnsort recursively
on ``M(n)`` (one key per VP): the keys form an ``r x s`` matrix
(column-major; column ``j`` lives on the contiguous VP segment
``[j*r, (j+1)*r)``), with eight phases:

1. sort columns (recursively),
2. "transpose": read the matrix column-major, write it row-major
   (spreads every column evenly over all columns),
3. sort columns,
4. "untranspose"/diagonalise: the inverse permutation of phase 2,
5. sort columns,
6. cyclic shift by ``r/2`` of the column-major order,
7. sort columns,
8. reverse cyclic shift.

Shape: ``r`` is the smallest power of two with ``r^3 >= 2 n^2`` — i.e.
``r = Theta(n^{2/3})`` as in the paper while guaranteeing Leighton's
correctness condition ``r >= 2 (s-1)^2``.

Two notes on fidelity to the paper's prose (both validated empirically in
the test-suite against reference sorting on hundreds of permutations):

* The paper says phase 5 sorts adjacent columns "in reverse order"; that
  remark belongs to the non-cyclic-shift formulation of Leighton's
  algorithm.  With the paper's own cyclic-shift phases 6-8 (footnote 6)
  all column sorts must be ascending, so that is what we implement.
* Footnote 6's "first r/2 keys of the first column are considered
  smaller" modified comparison is realised as one extra degree-1
  superstep after phase 7 swapping the two halves of column 0 (for
  distinct keys the wrapped keys are exactly the globally largest block,
  so half-swapping the ascending column equals sorting under the
  modified order).

Superstep structure: ``Theta(4^i)`` supersteps of label
``(1 - (2/3)^i) log n`` at recursion level ``i``, each VP of degree O(1)
(Theorem 4.8), giving::

    H_sort(n,p,sigma) = O((n/p + sigma) (log n / log(n/p))^{log_{3/2} 4})

Theta(1)-optimal for ``p = O(n^{1-delta})`` by Lemma 4.7, and on
admissible D-BSPs by Corollary 4.9.

Emission: the schedule depends on ``n`` alone, and the four column sorts
of a level are the same sub-schedule, so each level's column-sort
sub-schedule is recorded once and appended four times.  The keys still
pass through every base sort and permutation; both the recorder and the
value motion read each level's five dest maps, computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms._common import (
    AlgorithmResult,
    SendBuffer,
    add_wiseness_dummies,
    record_permutation,
)
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ceil_div, ilog2

__all__ = ["run", "SortResult", "columnsort_shape"]

#: Segments of at most this many VPs are sorted by one all-to-all superstep.
BASE_SIZE = 16


@dataclass
class SortResult(AlgorithmResult):
    """Result of the network-oblivious n-sort run."""

    output: np.ndarray = None  # keys in non-decreasing order (VP t = rank t)


def columnsort_shape(n: int) -> tuple[int, int]:
    """The ``(r, s)`` Columnsort shape for a segment of ``n`` keys.

    ``r`` is the smallest power of two with ``r^3 >= 2 n^2`` (hence
    ``r = Theta(n^{2/3})`` and ``r >= 2 s^2 >= 2 (s-1)^2``); ``s = n/r``.
    """
    logn = ilog2(n)
    exp = ceil_div(1 + 2 * logn, 3)
    r = 1 << min(exp, logn)
    return r, n // r


def _label(v: int, size: int) -> int:
    return ilog2(v // size) if size < v else 0


def _levels(n: int) -> list[tuple[int, tuple[np.ndarray, ...] | None]]:
    """The recursion from the whole input down to the base: ``(size,
    maps)`` per level, ``maps`` the five local dest maps of its
    permutation supersteps in phase order (``None`` at the base).

    The ``size``-VP segments of a level tile all ``n`` VPs, and its
    column segments are the next level's segments.
    """
    levels = []
    size = n
    while size > BASE_SIZE:
        r, s = columnsort_shape(size)
        f = np.arange(size, dtype=np.int64)
        # Footnote 6: modified order on column 0 == swap its halves.
        half = f.copy()
        half[: r // 2] += r // 2
        half[r // 2 : r] -= r // 2
        maps = (
            (f % s) * r + f // s,  # phase 2 transpose
            (f % r) * s + f // r,  # phase 4 untranspose
            (f + r // 2) % size,  # phase 6 cyclic shift
            half,  # after phase 7
            (f - r // 2) % size,  # phase 8 unshift
        )
        levels.append((size, maps))
        size = r
    levels.append((size, None))
    return levels


def _record(v: int, levels, wise: bool) -> ScheduleBuilder:
    """The schedule, recorded bottom up.

    The base level is one all-to-all superstep in every segment (degree
    ``size - 1``, a constant since ``size <= BASE_SIZE``): each VP then
    ranks its segment's keys locally.  Every other level sorts its
    columns before phases 2, 4, 6 and 7; that column-sort sub-schedule
    is the same each time, so it is recorded once and appended four
    times.
    """
    size = levels[-1][0]
    sched = ScheduleBuilder(v)
    if size > 1:
        segs = np.arange(0, v, size, dtype=np.int64)
        src, dst = np.nonzero(~np.eye(size, dtype=bool))
        buf = SendBuffer()
        buf.add((segs[:, None] + src).ravel(), (segs[:, None] + dst).ravel())
        label = _label(v, size)
        if wise:
            add_wiseness_dummies(buf, v, label, 1)
        buf.flush(sched, label)
    for size, maps in reversed(levels[:-1]):
        cols, sched = sched, ScheduleBuilder(v)
        segs = np.arange(0, v, size, dtype=np.int64)
        for phase, dest in enumerate(maps):
            if phase < 4:
                sched.extend(cols)
            record_permutation(sched, segs, size, _label(v, size), dest, wise)
    return sched


def _sort_values(val: np.ndarray, levels, i: int = 0) -> None:
    """Move ``val`` through every base sort and permutation of level
    ``i`` and below, all of the level's segments in lockstep."""
    size, maps = levels[i]
    blocks = val.reshape(-1, size)
    if maps is None:
        blocks.sort(axis=1)
        return
    for phase, dest in enumerate(maps):
        if phase < 4:
            _sort_values(val, levels, i + 1)
        blocks[:, dest] = blocks.copy()


def run(keys: np.ndarray, *, wise: bool = True) -> SortResult:
    """Sort ``keys`` with the network-oblivious Columnsort algorithm.

    ``keys`` must have power-of-two length; for the correctness argument
    of the cyclic-shift variant keys should be distinct (ties can always
    be broken by input index).  VP ``j`` initially holds ``keys[j]``; on
    return VP ``t`` holds the rank-``t`` key, collected in ``output``.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    ilog2(n)
    levels = _levels(n)
    val = keys.astype(np.float64, copy=True) if keys.dtype.kind in "iu" else keys.copy()
    _sort_values(val, levels)
    return SortResult.from_schedule(_record(n, levels, wise).build(), n, output=val)


# ----------------------------------------------------------------------
# Registry spec (repro.api): distinct keys via a seeded permutation.
# ----------------------------------------------------------------------
from repro.api.registry import AlgorithmSpec, register  # noqa: E402


def _api_check(n: int, *, wise: bool = True) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"n-sort needs power-of-two n >= 2, got n={n}")


def _api_emit(n: int, rng, *, wise: bool = True) -> SortResult:
    keys = rng.permutation(n)
    result = run(keys, wise=wise)
    result.oracle_input = keys  # adapt computes the reference lazily
    return result


def _api_adapt(result: SortResult) -> dict:
    keys = getattr(result, "oracle_input", None)
    if keys is None:  # result not emitted through the registry
        return {}
    # run() casts integer keys to float64; the oracle must match.
    return {
        "correct": bool(
            np.array_equal(result.output, np.sort(keys).astype(np.float64))
        )
    }


register(
    AlgorithmSpec(
        name="sort",
        summary="n-sort, recursive Columnsort",
        kind="oblivious",
        section="4.3",
        emit=_api_emit,
        check=_api_check,
        adapt=_api_adapt,
        default_sizes=(64, 256, 1024),
    )
)
