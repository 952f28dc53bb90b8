"""Space-efficient network-oblivious matrix multiplication (Section 4.1.1).

The 8-way algorithm of Section 4.1 replicates operands and incurs an
``O(n^{1/3})`` memory blow-up per VP.  This variant trades communication
for space: the VPs are recursively divided into **four** segments that
solve the eight quadrant subproblems in **two rounds**:

* round A: segments compute ``A00*B00 | A01*B11 | A11*B10 | A10*B01``;
* round B: segments compute ``A01*B10 | A00*B01 | A10*B00 | A11*B11``.

(Writing ``M = A_hl * B_lk``, segment ``s = 2h+k`` receives the ``l=1``
term in one round and the ``l=0`` term in the other, so it accumulates
quadrant ``C_hk = s`` locally with **zero** combination communication.)

Because in each round the (A-quadrant, B-quadrant) assignment is a
*bijection* onto segments, operands are never replicated: each VP holds
exactly one working entry of A and one of B at all times, and a routing
superstep is a permutation (every VP sends 2 and receives 2 entries).
Memory blow-up is O(1); the stack the paper mentions is the O(log n)-deep
round path, needing O(1) bits per level (which round we are in) — here it
is the recursion state of the driver.

Superstep structure: ``Theta(2^i)`` supersteps of label ``2i`` at level
``i``, each of degree O(1) — giving (Sec. 4.1.1)::

    H_MM-space(n, p, sigma) = O(n/sqrt(p) + sigma*sqrt(p)),

Theta(1)-optimal w.r.t. the class C' of algorithms with O(n/v) local
storage (Irony-Toledo-Tiskin lower bound Omega(n/sqrt(p))).

``n = side**2`` may be any power of 4 (side a power of two >= 2): the
4-way recursion bottoms out exactly at one-entry tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms._common import AlgorithmResult, SendBuffer, add_wiseness_dummies
from repro.algorithms.semiring import STANDARD, Semiring
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2
from repro.util.morton import dense_to_morton, morton_to_dense

__all__ = ["run", "SpaceMatMulResult", "ROUND_A", "ROUND_B"]

# Quadrant assignment bijections: segment s works on A-quadrant
# PERM_A[round][s] (Morton slice index 2h+l) and B-quadrant
# PERM_B[round][s] (Morton slice index 2l+k).
ROUND_A = (np.array([0, 1, 3, 2]), np.array([0, 3, 2, 1]))
ROUND_B = (np.array([1, 0, 2, 3]), np.array([2, 1, 0, 3]))


@dataclass
class SpaceMatMulResult(AlgorithmResult):
    """Result of the space-efficient n-MM run."""

    product: np.ndarray = None
    max_entries_per_vp: int = 0  # live matrix entries per VP (O(1) claim)


class _State:
    """Driver state: values are immutable, only positions permute."""

    def __init__(self, machine: ScheduleBuilder, val_a, val_b, sr: Semiring, wise: bool):
        n = machine.v
        self.machine = machine
        self.sr = sr
        self.wise = wise
        self.val_a = val_a
        self.val_b = val_b
        # pos_x[g] = VP currently holding the working copy of entry g.
        self.pos_a = np.arange(n, dtype=np.int64)
        self.pos_b = np.arange(n, dtype=np.int64)
        # ent_x[r] = entry whose working copy VP r holds.
        self.ent_a = np.arange(n, dtype=np.int64)
        self.ent_b = np.arange(n, dtype=np.int64)
        self.c = np.full(n, sr.zero, dtype=np.result_type(val_a, val_b, float))


def _route_round(state: _State, seg, a_start, b_start, m: int, label: int, perm):
    """One routing superstep: permute working entries to round positions.

    ``seg/a_start/b_start`` are arrays over the tasks of this level; every
    VP of every segment receives exactly the (A, B) entry pair its
    round-subtask needs.  Returns the subtask arrays.
    """
    perm_a, perm_b = perm
    quarter = m // 4
    offs = np.arange(m, dtype=np.int64)
    s_of = offs // quarter
    t_of = offs % quarter
    loc_a = perm_a[s_of] * quarter + t_of
    loc_b = perm_b[s_of] * quarter + t_of

    dst = (seg[:, None] + offs[None, :]).ravel()
    need_a = (a_start[:, None] + loc_a[None, :]).ravel()
    need_b = (b_start[:, None] + loc_b[None, :]).ravel()

    buf = SendBuffer()
    for need, pos, ent in (
        (need_a, state.pos_a, state.ent_a),
        (need_b, state.pos_b, state.ent_b),
    ):
        src = pos[need]
        move = src != dst
        buf.add(src[move], dst[move])
        pos[need] = dst
        ent[dst] = need
    if state.wise:
        add_wiseness_dummies(buf, state.machine.v, label, 1)
    buf.flush(state.machine, label)

    sub_seg = (seg[:, None] + np.arange(4)[None, :] * quarter).ravel()
    sub_a = (a_start[:, None] + perm_a[None, :] * quarter).ravel()
    sub_b = (b_start[:, None] + perm_b[None, :] * quarter).ravel()
    return sub_seg, sub_a, sub_b


def _solve(state: _State, seg, a_start, b_start, m: int, level: int) -> None:
    if m == 1:
        # Base: every VP multiply-accumulates its current working pair into
        # its canonical C entry (task C ranges coincide with segments).
        a = state.val_a[state.ent_a[seg]]
        b = state.val_b[state.ent_b[seg]]
        state.c[seg] = state.sr.add(state.c[seg], state.sr.mul(a, b))
        return
    label = 2 * level
    for perm in (ROUND_A, ROUND_B):
        sub = _route_round(state, seg, a_start, b_start, m, label, perm)
        _solve(state, *sub, m // 4, level + 1)


def run(
    A: np.ndarray,
    B: np.ndarray,
    *,
    semiring: Semiring = STANDARD,
    wise: bool = True,
) -> SpaceMatMulResult:
    """Multiply ``A @ B`` with the space-efficient network-oblivious algorithm.

    Same contract as :func:`repro.algorithms.matmul.run`; the trace
    realises the ``Theta(2^i)`` label-2i superstep structure of
    Section 4.1.1 and every VP holds O(1) matrix entries throughout.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    side = A.shape[0]
    if A.shape != (side, side) or B.shape != (side, side):
        raise ValueError(f"need equal square matrices, got {A.shape} and {B.shape}")
    ilog2(side)
    if side < 2:
        raise ValueError("need side >= 2")
    n = side * side

    builder = ScheduleBuilder(n)
    state = _State(builder, dense_to_morton(A), dense_to_morton(B), semiring, wise)
    root = (
        np.array([0], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([0], dtype=np.int64),
    )
    _solve(state, *root, n, 0)

    return SpaceMatMulResult.from_schedule(
        builder.build(),
        n,
        product=morton_to_dense(state.c),
        max_entries_per_vp=3,  # working A + working B + C accumulator
    )


# ----------------------------------------------------------------------
# Registry spec (repro.api): n is the number of matrix entries, side**2.
# ----------------------------------------------------------------------
from repro.api.registry import AlgorithmSpec, register  # noqa: E402
from repro.util.intmath import square_side  # noqa: E402


def _api_check(n: int, *, wise: bool = True) -> None:
    square_side(n, 2, what="space-efficient n-MM")


def _api_emit(n: int, rng, *, wise: bool = True) -> SpaceMatMulResult:
    side = square_side(n, 2, what="space-efficient n-MM")
    A, B = rng.random((side, side)), rng.random((side, side))
    result = run(A, B, wise=wise)
    result.oracle_input = (A, B)  # adapt computes the reference lazily
    return result


def _api_adapt(result: SpaceMatMulResult) -> dict:
    """Numeric + structural oracle: the product must match ``A @ B`` and
    the trace must realise Section 4.1.1 — ``2^{i+1}`` supersteps of
    label ``2i`` per level (``2^{L+1} - 2`` in total for ``side = 2^L``)
    with O(1) working entries sent per VP per superstep."""
    inputs = getattr(result, "oracle_input", None)
    if inputs is None:  # result not emitted through the registry
        return {}
    A, B = inputs
    ok = bool(np.allclose(result.product, A @ B))
    trace = result.trace
    levels = ilog2(int(np.sqrt(result.v)))
    ok = ok and trace.num_supersteps == 2 ** (levels + 1) - 2
    for i in range(levels):
        ok = ok and int(np.count_nonzero(trace.labels == 2 * i)) == 2 ** (i + 1)
    for s in range(trace.num_supersteps):
        _, src, _ = trace.superstep(s)
        if src.size and int(np.bincount(src).max()) > 3:
            ok = False  # a VP shipped more than its A+B pair (+dummy)
    return {"correct": ok}


register(
    AlgorithmSpec(
        name="matmul-space",
        summary="n-MM, space-efficient 4-way/2-round variant (O(1) space/VP)",
        kind="oblivious",
        section="4.1.1",
        emit=_api_emit,
        check=_api_check,
        adapt=_api_adapt,
        default_sizes=(64, 256, 1024),
    )
)
