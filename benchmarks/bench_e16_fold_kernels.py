"""E16 — folding-kernel throughput: the analysis hot path, measured.

Every experiment in this suite reduces to folding one recorded trace onto
many machines: ``h_s(n,p)`` / ``F^i(n,p)`` / ``fold_trace`` across a
sweep of ``p``.  This bench stresses exactly that path with a
superstep-heavy random trace (thousands of supersteps, hundreds of
thousands of messages) — the regime where per-superstep Python iteration
dominates and the columnar kernels pay off.  It doubles as the perf
tripwire for ``BENCH_baseline.json``.
"""

import numpy as np

from _util import emit_table, geometric
from repro.core.metrics import TraceMetrics
from repro.machine.folding import F_vector, fold_degrees, fold_message_counts, fold_trace
from repro.machine.program import ScheduleBuilder
from repro.machine.trace import Trace


def make_trace(v: int, supersteps: int, msgs: int, seed: int = 16) -> Trace:
    """A legal random trace: every message obeys its label's cluster.

    Endpoints are drawn in one batch (construction must not dominate the
    folding measurement): destinations keep their source's label-cluster
    prefix and randomise the remaining low bits.
    """
    rng = np.random.default_rng(seed)
    logv = int(np.log2(v))
    labels = rng.integers(0, logv, size=supersteps)
    src = rng.integers(0, v, size=(supersteps, msgs))
    shift = (logv - labels)[:, None]
    low = rng.integers(0, v, size=(supersteps, msgs)) & ((1 << shift) - 1)
    dst = (src >> shift << shift) | low
    builder = ScheduleBuilder(v)
    for s in range(supersteps):
        builder.superstep(int(labels[s]), src[s], dst[s])
    return builder.build()


def run_sweep(v: int = 1024, supersteps: int = 4000, msgs: int = 100):
    trace = make_trace(v, supersteps, msgs)
    tm = TraceMetrics(trace)
    rows = []
    for p in geometric(2, v, 2):
        deg = fold_degrees(trace, p)
        F = F_vector(trace, p)
        counts = fold_message_counts(trace, p)
        rows.append(
            [
                p,
                int(deg.max()),
                int(F.sum()),
                int(counts.sum()),
                round(tm.H(p, 4.0), 1),
            ]
        )
    folded = fold_trace(trace, max(2, v // 4))
    rows.append(["fold_trace", folded.num_supersteps, folded.total_messages, "-", "-"])
    return rows


def test_e16_fold_kernels(benchmark, quick):
    args = (256, 500, 50) if quick else (1024, 4000, 100)
    rows = benchmark.pedantic(run_sweep, args=args, rounds=1, iterations=1)
    emit_table(
        "e16_fold_kernels",
        "E16  folding-kernel throughput on a superstep-heavy trace",
        ["p", "max h_s", "sum F", "cross msgs", "H(p,4)"],
        rows,
    )
    # Folding is monotone: coarser machines internalise messages.
    cross = [r[3] for r in rows[:-1]]
    assert all(a <= b for a, b in zip(cross, cross[1:]))
    # The full fold keeps every message (block size 1 internalises nothing
    # except self-messages, which the generator can produce only at random).
    assert rows[-1][2] > 0
