"""Network-oblivious (n,2)-stencil schedule (Section 4.4.2).

The (n,2)-stencil problem evaluates a three-dimensional ``n^3``-node grid
DAG (an ``n x n`` spatial grid over ``n`` timesteps).  The paper's
algorithm, specified on ``M(n^2)``, partitions the domain into 17
octahedra/tetrahedra (Bilardi–Preparata '97, Figs. 5-6) and evaluates
each by a recursive stripe decomposition: with ``k = 2^{ceil(sqrt(log n))}``,
a polyhedron of side ``m`` splits into ``4k - 3`` horizontal stripes of at
most ``k^2`` side-``m/k`` polyhedra, each stripe evaluated in parallel by
``k^2`` disjoint VP segments of ``P/k^2`` VPs; every phase opens with a
superstep of the parent level's label in which each VP sends/receives
O(1) messages.  Unrolled (Theorem 4.13)::

    H_2-stencil(n, p, sigma) = O((n^2 / sqrt(p)) * 8^{sqrt(log n)})

for ``sigma = O(n^2/p)`` — an ``8^{sqrt(log n)}``-factor from Lemma 4.10's
``Omega(n^2/sqrt(p))``.

**Reproduction note (documented substitution).**  The octahedron/
tetrahedron geometry lives in figures of Bilardi–Preparata '97 that this
paper only cites; what Theorem 4.13 actually uses is the *superstep
structure*: phase counts, labels, and per-VP O(1) degrees.  This module
generates exactly that structure as a static trace — each phase-opening
superstep carries one message per VP of each active segment crossing the
sub-segment boundary (plus the paper's wiseness dummies), and base-level
polyhedra contribute ``Theta(n_tau)`` wavefront supersteps — so every
quantity in Theorem 4.13 is measurable from the trace.  The structure
depends on ``n`` and ``k`` only, so the 17 stages are identical:
:func:`generate` records one stage in its own builder and appends it
once per stage with :meth:`~repro.machine.program.ScheduleBuilder.extend`.
Value-level 2D
stencils are validated separately by :mod:`repro.dag.stencil_dag`'s
direct evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms._common import AlgorithmResult, SendBuffer, add_wiseness_dummies
from repro.core.theory import stencil_k
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2

__all__ = ["generate", "Stencil2DSchedule", "STAGES"]

#: The 17-polyhedron partition of the cubic domain (Bilardi-Preparata '97).
STAGES = 17


@dataclass
class Stencil2DSchedule(AlgorithmResult):
    """Static schedule (trace) of the (n,2)-stencil algorithm on M(n^2)."""

    k: int = 0
    phases_per_level: int = 0  # 4k - 3
    levels: int = 0


def _phase_superstep(machine, segs: np.ndarray, seg_size: int, label: int, wise: bool):
    """One phase-opening superstep: every VP of every active segment
    exchanges O(1) boundary messages across its sub-segment boundary."""
    offs = np.arange(seg_size, dtype=np.int64)
    half = seg_size // 2
    src = (segs[:, None] + offs[None, :]).ravel()
    dst = (segs[:, None] + ((offs + half) % seg_size)[None, :]).ravel()
    buf = SendBuffer()
    buf.add(src, dst)
    if wise:
        add_wiseness_dummies(buf, machine.v, label, 1)
    buf.flush(machine, label)


def _eval_polyhedron(machine, segs: np.ndarray, P: int, m: int, k: int, wise: bool):
    """Recursive stripe evaluation of same-level polyhedra (lockstep)."""
    v = machine.v
    if P <= 1:
        # Side-n_tau polyhedra on single VPs: pure local computation.
        return
    label = ilog2(v // P) if P < v else 0
    if m < k or P < k * k:
        # Base: side-m polyhedron evaluated straightforwardly in Theta(m)
        # wavefront supersteps of constant degree (paper: 2*n_tau - 1).
        for _ in range(max(1, 2 * m - 1)):
            _phase_superstep(machine, segs, P, label, wise)
        return
    sub_P = P // (k * k)
    for _r in range(4 * k - 3):
        _phase_superstep(machine, segs, P, label, wise)
        sub_segs = (
            segs[:, None] + np.arange(k * k, dtype=np.int64)[None, :] * sub_P
        ).ravel()
        _eval_polyhedron(machine, sub_segs, sub_P, m // k, k, wise)


def generate(n: int, *, k: int | None = None, wise: bool = True,
             stages: int = STAGES) -> Stencil2DSchedule:
    """Generate the (n,2)-stencil superstep schedule on ``M(n^2)``.

    ``n`` must be a power of two.  ``stages`` defaults to the paper's 17
    polyhedra; reduce it (e.g. to 1) to study a single octahedron.
    Each stage is preceded by the paper's O(1) 0-supersteps of constant
    degree redistributing stage inputs.  The stages' superstep sequences
    are identical, so one is recorded and repeated ``stages`` times;
    ``stages=0`` gives an empty schedule.
    """
    ilog2(n)
    v = n * n
    kk = k if k is not None else stencil_k(n)
    root = np.array([0], dtype=np.int64)
    levels = 0
    m = n
    while m >= kk and (v // (kk * kk) ** levels) >= kk * kk:
        levels += 1
        m //= kk
    stage = ScheduleBuilder(v)
    # Stage-opening 0-superstep: O(1) messages per VP.
    _phase_superstep(stage, root, v, 0, wise)
    _eval_polyhedron(stage, root, v, n, kk, wise)
    builder = ScheduleBuilder(v)
    for _ in range(stages):
        builder.extend(stage)
    return Stencil2DSchedule.from_schedule(
        builder.build(), n, k=kk, phases_per_level=4 * kk - 3, levels=levels
    )


# ----------------------------------------------------------------------
# Registry spec (repro.api): n is the grid side; the schedule lives on
# M(n^2) and needs no input values (the trace is the product).
# ----------------------------------------------------------------------
from repro.api.registry import AlgorithmSpec, register  # noqa: E402


def _api_check(n: int, *, wise: bool = True, k: int | None = None,
               stages: int = STAGES) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"(n,2)-stencil needs power-of-two n >= 2, got n={n}")


def _api_emit(n: int, rng, *, wise: bool = True, k: int | None = None,
              stages: int = STAGES) -> Stencil2DSchedule:
    result = generate(n, wise=wise, k=k, stages=stages)
    result.oracle_input = (n, result.k, stages)  # adapt checks structure
    return result


def _superstep_count(P: int, m: int, k: int) -> int:
    """Closed-form superstep recurrence of one stage's polyhedron."""
    if P <= 1:
        return 0
    if m < k or P < k * k:
        return max(1, 2 * m - 1)
    return (4 * k - 3) * (1 + _superstep_count(P // (k * k), m // k, k))


def _api_adapt(result: Stencil2DSchedule) -> dict:
    """Structural oracle: the schedule carries no values, so correctness
    means the trace realises the paper's recurrence — the expected
    superstep count per stage and O(1) message degree per VP."""
    inputs = getattr(result, "oracle_input", None)
    if inputs is None:  # result not emitted through the registry
        return {}
    n, k, stages = inputs
    trace = result.trace
    expected = stages * (1 + _superstep_count(n * n, n, k))
    ok = trace.num_supersteps == expected
    # Equal supersteps have equal degrees: test one of each class.
    for s in np.flatnonzero(trace.pattern == np.arange(trace.num_supersteps)):
        _, src, _ = trace.superstep(s)
        if src.size and int(np.bincount(src).max()) > 2:
            ok = False  # a VP sent more than O(1) boundary messages
    return {"correct": bool(ok)}


register(
    AlgorithmSpec(
        name="stencil2d",
        summary="(n,2)-stencil schedule on M(n^2) (17 polyhedra)",
        kind="oblivious",
        section="4.4.2",
        emit=_api_emit,
        check=_api_check,
        adapt=_api_adapt,
        default_sizes=(4, 8, 16),
    )
)
