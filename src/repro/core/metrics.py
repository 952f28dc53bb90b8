"""Cached, fold-aware metrics of a static algorithm's trace.

One execution of a network-oblivious algorithm on its specification
machine ``M(v(n))`` determines, through folding, its behaviour on *every*
``M(p, sigma)`` and ``D-BSP(p, g, ell)`` with ``p <= v(n)``.
:class:`TraceMetrics` wraps a trace and reads the folded quantities from
the folding kernels (:mod:`repro.machine.folding`), which memoise one
fold table per trace, on the trace itself, for every ``p``; so
parameter sweeps (the bulk of the experiments) do not recompute degrees,
and even fresh ``TraceMetrics`` over the same trace stay cheap.

The exposed quantities use the paper's notation:

``S(p)[i]``  — number of i-supersteps surviving the fold (``S^i_A(n)``)
``F(p)[i]``  — cumulative degree of i-supersteps  (``F^i_A(n, p)``)
``H(p, sigma)`` — Eq. 1 communication complexity
``D(p, g, ell)`` — Eq. 2 communication time
"""

from __future__ import annotations

import numpy as np

from repro.machine.folding import F_vector, S_vector, fold_degrees
from repro.machine.trace import Trace
from repro.util.intmath import ilog2

__all__ = ["TraceMetrics"]


class TraceMetrics:
    """Folded metrics of one recorded trace (memoised by the kernels)."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.v = trace.v

    # ------------------------------------------------------------------
    def degrees(self, p: int) -> np.ndarray:
        """Per-superstep folded degrees ``h_s(n, p)`` (cached)."""
        return fold_degrees(self.trace, p)

    def F(self, p: int) -> np.ndarray:
        return F_vector(self.trace, p)

    def S(self, p: int) -> np.ndarray:
        return S_vector(self.trace, p)

    # ------------------------------------------------------------------
    def H(self, p: int, sigma: float) -> float:
        """Communication complexity on ``M(p, sigma)`` (Eq. 1)."""
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        return float(self.F(p).sum() + sigma * self.S(p).sum())

    def D(self, p: int, g, ell) -> float:
        """Communication time on ``D-BSP(p, g, ell)`` (Eq. 2)."""
        logp = ilog2(p)
        g = np.asarray(g, dtype=np.float64)
        ell = np.asarray(ell, dtype=np.float64)
        if g.shape != (logp,) or ell.shape != (logp,):
            raise ValueError(f"g and ell must have length log2(p)={logp}")
        return float(self.F(p).astype(np.float64) @ g + self.S(p).astype(np.float64) @ ell)

    def D_machine(self, machine) -> float:
        """Communication time on a :class:`repro.models.DBSP` instance."""
        return self.D(machine.p, machine.g, machine.ell)

    # ------------------------------------------------------------------
    def prefix_F(self, p: int) -> np.ndarray:
        """Prefix sums ``sum_{i<j} F^i(n,p)`` for ``j = 1..log p``.

        These prefix aggregates are the quantities Lemma 3.1,
        Definition 3.2 (wiseness) and Definition 5.2 (fullness) are all
        stated over.
        """
        return np.cumsum(self.F(p))

    def prefix_S(self, p: int) -> np.ndarray:
        return np.cumsum(self.S(p))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceMetrics(v={self.v}, supersteps={self.trace.num_supersteps})"
