"""Reusable communication-pattern builders for M(v) algorithms.

The Section-4 algorithms repeatedly use a small vocabulary of collective
patterns inside VP segments: block redistribution, transposition-style
permutations, cyclic shifts, all-gather within tiny segments, and the
paper's *wiseness dummy messages*.  Each builder returns a list of
``(src, dst, payload)`` triples ready for :meth:`Machine.superstep`, so
algorithms stay declarative and the patterns are unit-testable in
isolation.

All builders take *global* VP indices (``seg`` = first VP of the segment)
and never emit a message leaving the segment, so a superstep built from
them is always legal at label ``log2(v // seg_size)`` or finer.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = [
    "permute_in_segment",
    "cyclic_shift",
    "all_to_all_segment",
    "wiseness_dummies",
]


def permute_in_segment(
    seg: int,
    size: int,
    perm: Callable[[int], int],
    payload: Callable[[int], Any],
) -> list[tuple[int, int, Any]]:
    """Messages realising ``local t -> local perm(t)`` within a segment.

    ``payload(t)`` supplies the value carried away from local offset ``t``.
    Self-messages (``perm(t) == t``) are skipped — a value staying put
    needs no communication.
    """
    out = []
    for t in range(size):
        u = perm(t)
        if not 0 <= u < size:
            raise ValueError(f"perm({t})={u} leaves segment of size {size}")
        if u != t:
            out.append((seg + t, seg + u, payload(t)))
    return out


def cyclic_shift(
    seg: int,
    size: int,
    shift: int,
    payload: Callable[[int], Any],
) -> list[tuple[int, int, Any]]:
    """Cyclic shift by ``shift`` positions within a segment (Phase 6/8 of
    Columnsort uses this on the whole machine)."""
    s = shift % size
    return permute_in_segment(seg, size, lambda t: (t + s) % size, payload)


def all_to_all_segment(
    seg: int,
    size: int,
    payload: Callable[[int], Any],
) -> list[tuple[int, int, Any]]:
    """Each VP of the segment broadcasts its payload to every *other* VP.

    Degree ``size - 1``; used as the base case of recursive sorting where
    the segment size is a bounded constant.
    """
    out = []
    for t in range(size):
        val = payload(t)
        for u in range(size):
            if u != t:
                out.append((seg + t, seg + u, val))
    return out


def wiseness_dummies(
    v: int,
    label: int,
    multiplicity: int = 1,
) -> list[tuple[int, int, Any]]:
    """The paper's dummy messages enforcing ((1), v)-wiseness.

    Section 4.1: "in each 3i-superstep, VP_j sends 2^i dummy messages to
    VP_{j + n/2^{3i+1}}, for 0 <= j < n/2^{3i+1}" — generalised here to an
    arbitrary superstep label: the first half of the first ``label``-cluster
    sends ``multiplicity`` messages each to its partner in the second half.
    These messages cross every cluster boundary finer than ``label``, which
    is exactly what makes the folded degree scale as ``p/2^j``.
    """
    half = v >> (label + 1)
    if half == 0:
        return []
    out = []
    for j in range(half):
        for _ in range(multiplicity):
            out.append((j, j + half, ("dummy", None)))
    return out
