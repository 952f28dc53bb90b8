"""E01 — Lemma 3.1: the folding inequality, measured.

For every algorithm trace and every fold ``2^j``, the ratio

    sum_{i<j} F^i(n, 2^j)  /  ((p/2^j) sum_{i<j} F^i(n, p))

must be <= 1; its distance from 1 is exactly the wiseness alpha the
optimality theorem consumes.  The bench tabulates the ratio across folds
for the Section-4 algorithms and a deliberately unbalanced pattern.
"""

import numpy as np

from _util import emit_table
from repro.algorithms import fft, matmul, sorting
from repro.core.lemmas import lemma_3_1_slack
from repro.core.metrics import TraceMetrics
from repro.machine.program import ScheduleBuilder


def _cases():
    rng = np.random.default_rng(1)
    side = 16
    cases = {
        "matmul(n=256)": matmul.run(rng.random((side, side)), rng.random((side, side))).trace,
        "fft(n=256)": fft.run(rng.random(256) + 0j).trace,
        "sort(n=256)": sorting.run(rng.permutation(256).astype(float)).trace,
    }
    t = ScheduleBuilder(256)
    t.superstep(0, np.zeros(256, np.int64), np.full(256, 128, np.int64))
    cases["point-to-point"] = t.build()
    return cases


def run_sweep():
    rows = []
    for name, trace in _cases().items():
        slack = lemma_3_1_slack(TraceMetrics(trace), trace.v)
        rows.append([name, *[round(float(s), 3) for s in slack[[0, 3, 5, 7]]],
                     round(float(slack.max()), 3)])
    return rows


def test_e01_lemma_3_1(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit_table(
        "e01_folding_lemma",
        "E01  Lemma 3.1 slack (must be <= 1): prefix-F ratio at folds j",
        ["trace", "j=1", "j=4", "j=6", "j=8", "max_j"],
        rows,
    )
    for r in rows:
        assert max(r[1:]) <= 1.0 + 1e-9, f"Lemma 3.1 violated by {r[0]}"
    # The wise Section-4 algorithms keep the ratio bounded away from 0 ...
    for r in rows[:3]:
        assert min(x for x in r[1:] if x > 0) >= 0.2
    # ... while the point-to-point pattern collapses at coarse folds.
    assert rows[3][1] < 0.05
