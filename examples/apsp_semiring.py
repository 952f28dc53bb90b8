#!/usr/bin/env python
"""All-pairs shortest paths via network-oblivious (min,+) matrix powers.

Kerr's semiring restriction — the class the n-MM lower bound lives in —
is not a formality: it is what lets the same oblivious algorithm compute
over the *tropical* semiring, where repeated squaring of the weight
matrix solves all-pairs shortest paths.  This example builds a random
weighted digraph, runs ceil(log2 side) oblivious (min,+) squarings, and
checks against scipy's shortest-path routine, reporting the accumulated
communication metrics.

Run:  python examples/apsp_semiring.py [side]
"""

import sys

import numpy as np
from scipy.sparse.csgraph import shortest_path

from repro import TraceMetrics
from repro.algorithms import matmul
from repro.algorithms.semiring import MIN_PLUS
from repro.machine.program import ScheduleBuilder


def main(side: int = 16) -> None:
    rng = np.random.default_rng(11)
    # Random sparse weighted digraph as a (min,+) matrix.
    W = np.full((side, side), np.inf)
    np.fill_diagonal(W, 0.0)
    mask = rng.random((side, side)) < 0.25
    W[mask] = rng.uniform(1.0, 10.0, mask.sum())
    np.fill_diagonal(W, 0.0)

    dist = W.copy()
    traces = []
    rounds = int(np.ceil(np.log2(side)))
    for r in range(rounds):
        res = matmul.run(dist, dist, semiring=MIN_PLUS)
        dist = res.product
        traces.append(res.trace)
        print(f"squaring round {r + 1}/{rounds}: "
              f"{res.supersteps} supersteps, {res.messages} messages")

    ref = shortest_path(np.where(np.isinf(W), 0, W), method="FW",
                        directed=True, unweighted=False)
    # scipy treats 0 as "no edge"; rebuild inf pattern for comparison.
    ok = np.allclose(np.where(np.isinf(dist), np.inf, dist), ref, equal_nan=True)
    print(f"\nAPSP matches scipy Floyd-Warshall: {ok}")

    squarings = ScheduleBuilder(traces[0].v)
    for t in traces:
        squarings.supersteps(t.labels, t.offsets, t.src, t.dst)
    metrics = TraceMetrics(squarings.build())
    n = side * side
    print("\naccumulated communication of all squarings:")
    print(f"  {'p':>6} {'H(p, 0)':>10} {'H(p, 4)':>10}")
    p = 4
    while p <= n:
        print(f"  {p:>6} {metrics.H(p, 0.0):>10.0f} {metrics.H(p, 4.0):>10.0f}")
        p *= 4


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 16)
