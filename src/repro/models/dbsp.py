"""The execution machine model D-BSP(p, g, ell).

``D-BSP(p, g, ell)`` (de la Torre & Kruskal '96; Bilardi et al. '07a) is an
``M(p)`` whose processors are partitioned into nested *i-clusters* (the
``p/2^i`` processors sharing ``i`` most significant index bits).  An
i-superstep of degree ``h`` costs ``h * g_i + ell_i`` time: ``g_i`` is an
inverse bandwidth (time per message) and ``ell_i`` a latency-plus-
synchronisation charge for communication confined to i-clusters.  The
communication time of an algorithm A is (Eq. 2)::

    D_A(n, p, g, ell) = sum_{i=0}^{log p - 1} ( F^i_A(n,p) * g_i + S^i_A(n) * ell_i )

which :meth:`repro.core.metrics.TraceMetrics.D_machine` evaluates for a
:class:`DBSP` instance.

Theorem 3.4 additionally requires *admissible* parameters — non-increasing
``g_i`` and ``ell_i / g_i`` — reflecting that coarser clusters have more
expensive communication but more aggregate capacity; :meth:`DBSP.validate`
enforces exactly those monotonicity conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.intmath import ilog2

__all__ = ["DBSP"]


@dataclass(frozen=True)
class DBSP:
    """A concrete ``D-BSP(p, g, ell)`` machine.

    ``g`` and ``ell`` are sequences of length ``log2 p`` indexed by
    superstep label (cluster level).  ``strict=True`` (default) rejects
    parameter vectors violating Theorem 3.4's monotonicity hypotheses.
    """

    p: int
    g: tuple[float, ...]
    ell: tuple[float, ...]
    strict: bool = field(default=True, compare=False)

    def __init__(self, p, g, ell, strict: bool = True):
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "g", tuple(float(x) for x in g))
        object.__setattr__(self, "ell", tuple(float(x) for x in ell))
        object.__setattr__(self, "strict", bool(strict))
        self.validate()

    @property
    def logp(self) -> int:
        return ilog2(self.p)

    def validate(self) -> None:
        logp = ilog2(self.p)
        if len(self.g) != logp or len(self.ell) != logp:
            raise ValueError(
                f"need log2(p)={logp} parameters, got |g|={len(self.g)}, "
                f"|ell|={len(self.ell)}"
            )
        if any(x <= 0 for x in self.g):
            raise ValueError("all g_i must be positive")
        if any(x < 0 for x in self.ell):
            raise ValueError("all ell_i must be non-negative")
        if self.strict and logp > 1:
            g = np.array(self.g)
            r = np.array(self.ell) / g
            # Tolerate tiny float noise in user-supplied vectors.
            if np.any(g[:-1] < g[1:] - 1e-12):
                raise ValueError(
                    "g_i must be non-increasing in i (coarser clusters are "
                    "slower per message); see Theorem 3.4"
                )
            if np.any(r[:-1] < r[1:] - 1e-12):
                raise ValueError(
                    "ell_i/g_i must be non-increasing in i (coarser clusters "
                    "have larger capacity); see Theorem 3.4"
                )

    # ------------------------------------------------------------------
    def superstep_cost(self, label: int, degree: float) -> float:
        """Cost ``h * g_i + ell_i`` of one i-superstep of degree ``h``."""
        return float(degree * self.g[label] + self.ell[label])

    def capacity_ratios(self) -> np.ndarray:
        """The vector ``ell_i / g_i`` constrained by Theorem 3.4."""
        return np.array(self.ell) / np.array(self.g)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"D-BSP(p={self.p}, g={self.g}, ell={self.ell})"

