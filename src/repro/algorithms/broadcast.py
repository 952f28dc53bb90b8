"""Broadcast (Section 4.5): the paper's negative result, executably.

The n-broadcast problem copies ``V[0]`` into every entry of an n-vector
distributed one entry per VP.  The paper proves:

* **Theorem 4.15** (lower bound): every class-C algorithm on ``M(p, sigma)``
  costs ``Omega(max(2,sigma) * log_{max(2,sigma)} p)``; a kappa-ary
  broadcast tree with ``kappa ~ max(2, sigma)`` matches it — but choosing
  kappa needs to *know* sigma.
* **Theorem 4.16** (gap): an *oblivious* algorithm (whose superstep count
  cannot depend on sigma) must lose a factor
  ``Omega(log s2 / (log s1 + log log s2))`` against the best aware
  algorithm somewhere in any window ``[sigma1, sigma2]`` — obliviousness
  provably cannot be free for broadcast.

:func:`run` implements the kappa-ary tree on ``M(n)``: superstep ``i``
has each tree root ``P_{j * n/kappa^i}`` send the value to the kappa
sub-roots of its cluster, using label ``i * log2(kappa)`` (messages stay
inside the sender's current cluster, so folding prunes the deep levels
automatically).  With ``kappa`` fixed (say 2) the algorithm is network-
oblivious; :func:`repro.baselines.bsp_broadcast.optimal_kappa` picks the
sigma-aware kappa of the matching upper bound.  :func:`gap` measures
``GAP_A(n, p, sigma1, sigma2)`` of Theorem 4.16 from traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms._common import AlgorithmResult
from repro.core.lower_bounds import broadcast_lower_bound
from repro.core.metrics import TraceMetrics
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2

__all__ = ["run", "BroadcastResult", "gap", "flat_run"]


@dataclass
class BroadcastResult(AlgorithmResult):
    """Result of a kappa-ary broadcast run."""

    output: np.ndarray = None
    kappa: int = 2


def run(values: np.ndarray, *, kappa: int = 2) -> BroadcastResult:
    """Broadcast ``values[0]`` over ``M(n)`` with a kappa-ary tree.

    ``kappa`` must be a power of two (so cluster labels stay integral).
    Superstep ``i`` (``0 <= i < log_kappa n``) has each current root send
    the value to ``kappa`` cluster sub-roots; after ``ceil(log_kappa n)``
    supersteps every VP holds ``values[0]``.
    """
    values = np.asarray(values)
    n = values.shape[0]
    logn = ilog2(n)
    logk = ilog2(kappa)
    if kappa < 2:
        raise ValueError("kappa must be >= 2")

    builder = ScheduleBuilder(n)
    out = values.copy()
    known = [0]  # roots currently holding the value
    i = 0
    while (kappa**i) < n:
        label = i * logk
        cluster = n >> label  # cluster size at this level
        # The fan-out clips to the cluster when kappa^{i+1} > n — the
        # paper's "only values of l that are multiples of kappa^{i+1}/p".
        fanout = min(kappa, cluster)
        sub = cluster // fanout
        srcs, dsts = [], []
        new_known = []
        for r in known:
            for l in range(fanout):
                d = r + l * sub
                new_known.append(d)
                if d != r:
                    srcs.append(r)
                    dsts.append(d)
        builder.superstep(
            label, np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64)
        )
        known = new_known
        i += 1
    out[:] = values[0]
    return BroadcastResult.from_schedule(builder.build(), n, output=out, kappa=kappa)


def flat_run(values: np.ndarray) -> BroadcastResult:
    """The one-superstep broadcast: P0 sends n-1 messages (degree n-1).

    The extreme oblivious strategy — optimal when sigma is huge, terrible
    when sigma is small; used by the gap experiments.
    """
    values = np.asarray(values)
    n = values.shape[0]
    ilog2(n)
    builder = ScheduleBuilder(n)
    dst = np.arange(1, n, dtype=np.int64)
    builder.superstep(0, np.zeros(n - 1, dtype=np.int64), dst)
    out = values.copy()
    out[:] = values[0]
    return BroadcastResult.from_schedule(builder.build(), n, output=out, kappa=n)


def gap(
    metrics: TraceMetrics,
    p: int,
    sigma1: float,
    sigma2: float,
    *,
    num: int = 33,
) -> float:
    """Measured ``GAP_A(n, p, sigma1, sigma2)`` (Section 4.5).

    The max over a geometric sigma grid of ``H_A(n,p,sigma) / H*(p,sigma)``
    where ``H*`` is Theorem 4.15's (tight) lower bound with unit constant.
    """
    if sigma1 > sigma2:
        raise ValueError("need sigma1 <= sigma2")
    lo = max(sigma1, 1e-9)
    sigmas = np.geomspace(lo, max(sigma2, lo), num)
    worst = 0.0
    for s in sigmas:
        h_star = broadcast_lower_bound(p, s)
        worst = max(worst, metrics.H(p, s) / h_star)
    return worst


# ----------------------------------------------------------------------
# Registry spec (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import AlgorithmSpec, register  # noqa: E402


def _api_check(n: int, *, kappa: int = 2) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"n-broadcast needs power-of-two n >= 2, got n={n}")
    if kappa < 2 or kappa & (kappa - 1):
        raise ValueError(f"kappa must be a power of two >= 2, got {kappa}")


def _api_emit(n: int, rng, *, kappa: int = 2) -> BroadcastResult:
    values = rng.random(n)
    result = run(values, kappa=kappa)
    result.oracle_input = values  # adapt replays the root value lazily
    return result


def _api_adapt(result: BroadcastResult) -> dict:
    values = getattr(result, "oracle_input", None)
    if values is None:  # result not emitted through the registry
        return {}
    oracle = np.full_like(values, values[0])
    return {"correct": bool(np.array_equal(result.output, oracle))}


register(
    AlgorithmSpec(
        name="broadcast",
        summary="n-broadcast over a kappa-ary cluster tree",
        kind="oblivious",
        section="4.5",
        emit=_api_emit,
        check=_api_check,
        adapt=_api_adapt,
        default_sizes=(64, 256, 1024),
    )
)
