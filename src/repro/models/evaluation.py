"""The evaluation model M(p, sigma) and its communication complexity.

``M(p, sigma)`` (Section 2) is an ``M(p)`` whose supersteps cost
``h + sigma`` where ``h`` is the superstep degree: it coincides with
Valiant's BSP with bandwidth parameter ``g = 1`` and latency/
synchronisation parameter ``L = sigma``.  The communication complexity of
an algorithm A is (Eq. 1)::

    H_A(n, p, sigma) = sum_{i=0}^{log p - 1} ( F^i_A(n,p) + S^i_A(n) * sigma )

For *static* algorithms these quantities are input-independent, so the max
over instances in Eq. 1 is superfluous and we evaluate them directly from
a recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import TraceMetrics
from repro.machine.folding import F_vector, S_vector
from repro.machine.trace import Trace
from repro.util.intmath import ilog2

__all__ = ["EvaluationModel", "communication_complexity"]


def communication_complexity(trace: Trace, p: int, sigma: float) -> float:
    """``H_A(n, p, sigma)`` of the trace folded onto ``M(p, sigma)``.

    ``p`` must be a power of two with ``p <= v``; ``sigma >= 0``.  Eq. 1
    itself is :meth:`repro.core.metrics.TraceMetrics.H`.
    """
    return TraceMetrics(trace).H(p, sigma)


@dataclass(frozen=True)
class EvaluationModel:
    """A concrete ``M(p, sigma)`` machine.

    Prefer this object form when a machine is passed around experiments;
    the free function :func:`communication_complexity` is the quick path.
    """

    p: int
    sigma: float

    def __post_init__(self) -> None:
        ilog2(self.p)
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def H(self, trace: Trace) -> float:
        """Communication complexity of ``trace`` on this machine (Eq. 1)."""
        return communication_complexity(trace, self.p, self.sigma)

    def superstep_cost(self, degree: float) -> float:
        """Cost ``h + sigma`` of a single superstep of degree ``h``."""
        return float(degree + self.sigma)

    def per_label_breakdown(self, trace: Trace) -> np.ndarray:
        """Array ``[(F^i, S^i, F^i + S^i * sigma)]`` for each label ``i``."""
        F = F_vector(trace, self.p)
        S = S_vector(trace, self.p)
        return np.stack([F, S, F + self.sigma * S], axis=1)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"M(p={self.p}, sigma={self.sigma})"
