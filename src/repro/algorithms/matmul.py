"""Network-oblivious matrix multiplication (Section 4.1).

The n-MM problem multiplies two ``sqrt(n) x sqrt(n)`` matrices using only
semiring operations.  The network-oblivious algorithm is specified on
``M(n)`` — one VP per matrix entry — and recurses as follows (quoting the
paper's three steps):

1. Partition the VPs into eight segments ``S_hkl`` of equal size;
   replicate/distribute the inputs so the entries of ``A_hl`` and
   ``B_kl`` are evenly spread among the VPs of ``S_hkl``.
2. In parallel, recursively compute ``M_hkl = A_hl * B_kl`` within each
   segment.
3. The VP responsible for ``C[i,j]`` collects the two partial products
   and computes ``C[i,j] = M_hk0[i',j'] + M_hk1[i',j']``.

At recursion level ``i`` the algorithm runs ``8^i`` independent
``(n/4^i)``-MM subproblems on disjoint ``M(n/8^i)`` segments, using O(1)
supersteps of label ``3i`` in which every VP sends/receives ``O(2^i)``
messages; wiseness dummies (Section 4.1) make it ((1), n)-wise.
Communication complexity: ``H_MM(n,p,sigma) = O(n/p^{2/3} + sigma log p)``
(Theorem 4.2), Theta(1)-optimal by Lemma 4.1 and, via Theorem 3.4, on all
admissible D-BSP machines (Corollary 4.3).

Implementation notes
--------------------
Matrices are stored as Morton-ordered vectors so that each quadrant is a
contiguous index range and "segment ``S_hkl`` holds quadrants ``(h,l)`` of
A and ``(k,l)`` of B" is contiguous-block arithmetic.  The invariant at
every recursion level: a task over segment ``[seg, seg+m)`` with operand
size ``q`` keeps entry ``j`` (task-local Morton index) of each operand on
VP ``seg + j // (q/m)``.

Sizes: ``n`` must be a power of 4 (square matrices of power-of-two side),
``n >= 16``.  The 8-way split runs while the segment is divisible by 8;
the paper's base case (one VP per ``n^{1/3}``-MM) is reached exactly when
``n`` is a power of 64, otherwise a 1-2 level all-gather base (segments of
2 or 4 VPs, constant degree ratio) finishes the recursion with the same
asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms._common import AlgorithmResult, SendBuffer, add_wiseness_dummies
from repro.algorithms.semiring import STANDARD, Semiring
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2
from repro.util.morton import dense_to_morton, morton_decode, morton_to_dense

__all__ = ["run", "MatMulResult", "specification_size"]


@dataclass
class MatMulResult(AlgorithmResult):
    """Result of the network-oblivious n-MM run."""

    product: np.ndarray = None  # dense sqrt(n) x sqrt(n) matrix


def specification_size(side: int) -> int:
    """Number of VPs the algorithm is specified on: ``v(n) = n = side**2``."""
    return side * side


@dataclass
class _Task:
    seg: int  # first VP of the segment
    m: int  # number of VPs in the segment
    a: np.ndarray  # Morton-ordered operand A', length q
    b: np.ndarray  # Morton-ordered operand B', length q

    @property
    def q(self) -> int:
        return self.a.shape[0]


def _replication_messages(task: _Task, buf: SendBuffer) -> list[_Task]:
    """Step 1: route quadrants to the eight sub-segments; return subtasks."""
    seg, m, q = task.seg, task.m, task.q
    epv = q // m  # entries per VP at this level (2^i)
    sub_m = m // 8
    sub_epv = 2 * epv  # (q/4) / (m/8)
    j = np.arange(q, dtype=np.int64)
    src = seg + j // epv
    quad = j // (q // 4)  # Morton quadrant (two top bits) of each entry
    jp = j % (q // 4)  # index within the quadrant
    hi = quad >> 1
    lo = quad & 1
    # Segment S_hkl computes M_hkl = A_hl * B_lk (so that C_hk = M_hk0 + M_hk1).
    # A quadrant (row, col) = (hi, lo) is A_hl with h = hi, l = lo: needed by
    # segments S_{hi, k, lo} for k = 0, 1.
    for k in (0, 1):
        idx = hi * 4 + k * 2 + lo
        buf.add(src, seg + idx * sub_m + jp // sub_epv)
    # B quadrant (row, col) = (hi, lo) is B_lk with l = hi, k = lo: needed by
    # segments S_{h, lo, hi} for h = 0, 1.
    for h in (0, 1):
        idx = h * 4 + lo * 2 + hi
        buf.add(src, seg + idx * sub_m + jp // sub_epv)

    quarter = q // 4
    subtasks = []
    for h in (0, 1):
        for k in (0, 1):
            for l in (0, 1):
                idx = h * 4 + k * 2 + l
                a_sub = task.a[(2 * h + l) * quarter : (2 * h + l + 1) * quarter]
                b_sub = task.b[(2 * l + k) * quarter : (2 * l + k + 1) * quarter]
                subtasks.append(_Task(seg + idx * sub_m, sub_m, a_sub, b_sub))
    return subtasks


def _combine_messages(
    task: _Task, products: list[np.ndarray], buf: SendBuffer, sr: Semiring
) -> np.ndarray:
    """Step 3: collect ``M_hk0``/``M_hk1`` into C's canonical layout."""
    seg, m, q = task.seg, task.m, task.q
    epv = q // m
    sub_m = m // 8
    sub_epv = 2 * epv
    quarter = q // 4
    jp = np.arange(quarter, dtype=np.int64)
    c = np.empty(q, dtype=np.result_type(task.a, task.b))
    for h in (0, 1):
        for k in (0, 1):
            p0 = products[h * 4 + k * 2 + 0]
            p1 = products[h * 4 + k * 2 + 1]
            c_quad_start = (2 * h + k) * quarter
            dst = seg + (c_quad_start + jp) // epv
            for l in (0, 1):
                idx = h * 4 + k * 2 + l
                buf.add(seg + idx * sub_m + jp // sub_epv, dst)
            c[c_quad_start : c_quad_start + quarter] = sr.add(p0, p1)
    return c


def _base_case(tasks: list[_Task], machine: ScheduleBuilder, label: int, sr: Semiring,
               wise: bool, epv: int) -> list[np.ndarray]:
    """Solve remaining tasks on segments of 1, 2 or 4 VPs.

    For ``m == 1`` the VP multiplies its ``n^{1/3}``-MM locally (the
    paper's base case).  For ``m in (2, 4)`` (n not a power of 64) the
    segment all-gathers both operands — a constant-degree-ratio superstep
    — and each VP computes its share of C.
    """
    m = tasks[0].m
    if m > 1:
        buf = SendBuffer()
        for t in tasks:
            own = t.q // m
            j = np.arange(t.q, dtype=np.int64)
            src = t.seg + j // own
            for other in range(m):
                dst = np.full(t.q, t.seg + other, dtype=np.int64)
                keep = src != dst
                # Two operands: send each entry of A' and B' once per peer.
                buf.add(src[keep], dst[keep])
                buf.add(src[keep], dst[keep])
        if wise:
            add_wiseness_dummies(buf, machine.v, label, epv)
        buf.flush(machine, label)
    # Every task has the same operand size: decode the Morton layout once.
    q = tasks[0].q
    side = int(round(q**0.5))
    rows, cols = morton_decode(np.arange(q), side)
    to_morton = rows * side + cols  # Morton index -> dense row-major index
    to_dense = np.empty(q, dtype=np.int64)
    to_dense[to_morton] = np.arange(q)
    a = np.stack([t.a for t in tasks])[:, to_dense].reshape(-1, side, side)
    b = np.stack([t.b for t in tasks])[:, to_dense].reshape(-1, side, side)
    prods = np.stack([sr.matmul(x, y) for x, y in zip(a, b)])
    return list(prods.reshape(len(tasks), q)[:, to_morton])


def _solve(tasks: list[_Task], level: int, machine: ScheduleBuilder, sr: Semiring,
           wise: bool) -> list[np.ndarray]:
    m = tasks[0].m
    epv = tasks[0].q // m if m else 1
    if m < 8:
        label = ilog2(machine.v // m) if m > 1 else 0
        return _base_case(tasks, machine, label, sr, wise, max(1, epv))

    label = 3 * level
    buf = SendBuffer()
    all_subtasks: list[_Task] = []
    for t in tasks:
        all_subtasks.extend(_replication_messages(t, buf))
    if wise:
        add_wiseness_dummies(buf, machine.v, label, 1 << level)
    buf.flush(machine, label)

    sub_products = _solve(all_subtasks, level + 1, machine, sr, wise)

    buf = SendBuffer()
    results = []
    for ti, t in enumerate(tasks):
        results.append(
            _combine_messages(t, sub_products[8 * ti : 8 * ti + 8], buf, sr)
        )
    if wise:
        add_wiseness_dummies(buf, machine.v, label, 1 << level)
    buf.flush(machine, label)
    return results


def run(
    A: np.ndarray,
    B: np.ndarray,
    *,
    semiring: Semiring = STANDARD,
    wise: bool = True,
) -> MatMulResult:
    """Multiply ``A @ B`` with the network-oblivious n-MM algorithm.

    Parameters
    ----------
    A, B:
        Dense square matrices of power-of-two side ``>= 4``.
    semiring:
        The semiring to compute over (default the standard ring).
    wise:
        Emit the paper's wiseness dummy messages (default), making the
        trace ((1), n)-wise; disable to measure the raw pattern.

    Returns
    -------
    MatMulResult with the dense ``product`` and the specification trace on
    ``M(n)``, ``n = side**2``.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    side = A.shape[0]
    if A.shape != (side, side) or B.shape != (side, side):
        raise ValueError(f"need equal square matrices, got {A.shape} and {B.shape}")
    n = side * side
    ilog2(side)
    if n < 16:
        raise ValueError("n-MM needs side >= 4 (n >= 16)")

    builder = ScheduleBuilder(n)
    root = _Task(0, n, dense_to_morton(A), dense_to_morton(B))
    (c_morton,) = [_solve([root], 0, builder, semiring, wise)[0]]
    product = morton_to_dense(c_morton)
    return MatMulResult.from_schedule(builder.build(), n, product=product)


# ----------------------------------------------------------------------
# Registry spec (repro.api): n is the number of matrix entries, side**2.
# ----------------------------------------------------------------------
from repro.api.registry import AlgorithmSpec, register  # noqa: E402
from repro.util.intmath import square_side  # noqa: E402


def _api_check(n: int, *, wise: bool = True) -> None:
    square_side(n, 4, what="n-MM")


def _api_emit(n: int, rng, *, wise: bool = True) -> MatMulResult:
    side = square_side(n, 4, what="n-MM")
    A, B = rng.random((side, side)), rng.random((side, side))
    result = run(A, B, wise=wise)
    result.oracle_input = (A, B)  # adapt computes the reference lazily
    return result


def _api_adapt(result: MatMulResult) -> dict:
    inputs = getattr(result, "oracle_input", None)
    if inputs is None:  # result not emitted through the registry
        return {}
    A, B = inputs
    return {"correct": bool(np.allclose(result.product, A @ B))}


register(
    AlgorithmSpec(
        name="matmul",
        summary="n-MM, 8-way recursive network-oblivious matrix multiply",
        kind="oblivious",
        section="4.1",
        emit=_api_emit,
        check=_api_check,
        adapt=_api_adapt,
        default_sizes=(64, 256, 1024),
    )
)
