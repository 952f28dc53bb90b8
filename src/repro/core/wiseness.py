"""(alpha, p)-wiseness — Definition 3.2 of the paper.

A static network-oblivious algorithm A on ``M(v(n))`` is *(alpha, p)-wise*
(``0 < alpha <= 1``, ``1 < p <= v(n)``) if for every ``1 <= j <= log p``::

    sum_{i<j} F^i_A(n, 2^j)  >=  alpha * (p / 2^j) * sum_{i<j} F^i_A(n, p)

i.e. Lemma 3.1's upper bound on folded communication is tight to within
``alpha``.  Intuitively: in each i-superstep some i-cluster has an
alpha-fraction of its processors sending the full degree across an
(i+1)-subcluster boundary, so halving the machine really does halve the
per-processor communication instead of hiding it inside processors.

This module *measures* the largest alpha a trace satisfies, both per
``j`` and overall, and provides the monotonicity helper used by the tests
(an (alpha,p)-wise algorithm is (alpha', p')-wise for alpha' <= alpha,
p' <= p).
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import TraceMetrics
from repro.util.intmath import ilog2

__all__ = ["wiseness_profile", "measured_alpha", "is_wise"]


def wiseness_profile(metrics: TraceMetrics, p: int) -> np.ndarray:
    """Per-``j`` wiseness ratios for ``j = 1..log p``.

    Entry ``j-1`` holds
    ``sum_{i<j} F^i(n,2^j) / ((p/2^j) * sum_{i<j} F^i(n,p))``.
    A ratio of 1 means the Lemma 3.1 bound is exactly tight at that fold;
    by Lemma 3.1 itself no ratio can exceed 1 (up to integer rounding of
    degrees, which can push it marginally above — we do not clamp so the
    tests can detect genuine violations).

    Folds ``j`` where the algorithm performs no communication at all on
    ``M(p)`` (denominator zero) are reported as ratio 1.0 — wiseness is
    vacuous there.
    """
    logp = ilog2(p)
    if logp < 1:
        raise ValueError("wiseness needs p >= 2")
    ratios = np.empty(logp, dtype=np.float64)
    pref_p = metrics.prefix_F(p)
    for j in range(1, logp + 1):
        pj = 1 << j
        num = float(metrics.prefix_F(pj)[j - 1])
        den = (p / pj) * float(pref_p[j - 1])
        ratios[j - 1] = 1.0 if den == 0 else num / den
    return ratios


def measured_alpha(metrics: TraceMetrics, p: int) -> float:
    """The largest alpha for which the trace is (alpha, p)-wise."""
    return float(wiseness_profile(metrics, p).min())


def is_wise(trace_or_metrics, p: int, alpha: float) -> bool:
    """Check Definition 3.2 directly for a given ``(alpha, p)``."""
    m = (
        trace_or_metrics
        if isinstance(trace_or_metrics, TraceMetrics)
        else TraceMetrics(trace_or_metrics)
    )
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return measured_alpha(m, p) >= alpha - 1e-12
