"""(gamma, p)-fullness — Definition 5.2 of the paper.

A static network-oblivious algorithm A on ``M(v(n))`` is *(gamma, p)-full*
(``gamma > 0``, ``1 < p <= v(n)``) if for every ``1 <= j <= log p``::

    sum_{i<j} F^i_A(n, 2^j)  >=  gamma * (p / 2^j) * sum_{i<j} S^i_A(n)

Fullness is strictly weaker than wiseness: it only asks that supersteps
carry "enough" aggregate communication relative to their count — e.g. the
single 0-superstep where VP_0 sends n messages to VP_{n/2} (Section 5's
running example) is ((1), p)-full but only (O(1/p), p)-wise.  Theorem 5.3
shows fullness suffices for optimality transfer when the algorithm is
executed through the ascend–descend protocol, at a ``log^2 p`` loss.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import TraceMetrics
from repro.util.intmath import ilog2

__all__ = ["fullness_profile", "measured_gamma", "is_full"]


def fullness_profile(metrics: TraceMetrics, p: int) -> np.ndarray:
    """Per-``j`` fullness ratios for ``j = 1..log p``.

    Entry ``j-1`` holds
    ``sum_{i<j} F^i(n,2^j) / ((p/2^j) * sum_{i<j} S^i(n))``.
    Folds with no surviving supersteps (denominator zero) report ``inf`` —
    fullness is vacuous there.
    """
    logp = ilog2(p)
    if logp < 1:
        raise ValueError("fullness needs p >= 2")
    ratios = np.empty(logp, dtype=np.float64)
    pref_S = metrics.prefix_S(p)
    for j in range(1, logp + 1):
        pj = 1 << j
        num = float(metrics.prefix_F(pj)[j - 1])
        den = (p / pj) * float(pref_S[j - 1])
        ratios[j - 1] = np.inf if den == 0 else num / den
    return ratios


def measured_gamma(metrics: TraceMetrics, p: int) -> float:
    """The largest gamma for which the trace is (gamma, p)-full."""
    return float(fullness_profile(metrics, p).min())


def is_full(trace_or_metrics, p: int, gamma: float) -> bool:
    """Check Definition 5.2 directly for a given ``(gamma, p)``."""
    m = (
        trace_or_metrics
        if isinstance(trace_or_metrics, TraceMetrics)
        else TraceMetrics(trace_or_metrics)
    )
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    return measured_gamma(m, p) >= gamma - 1e-12
