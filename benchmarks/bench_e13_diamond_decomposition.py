"""E13 — Figure 1: the diamond stripe decomposition, regenerated.

Checks the decomposition's combinatorics (2k-1 stripes of <= k diamonds,
k^2 sub-diamonds) for a grid of (n, k), and the per-level phase counts
``(2k-1)^i`` with labels ``(i-1) log k`` that drive Theorem 4.11 —
measured from an actual evaluate_diamond trace.
"""

import numpy as np

from _util import emit_table
from repro.algorithms import stencil1d
from repro.dag import phase_counts, stripe_decomposition


def run_sweep():
    rows = []
    for n, k in ((16, 4), (64, 4), (64, 8), (256, 4), (256, 16)):
        sd = stripe_decomposition(n, k)
        rows.append(
            [
                n,
                k,
                sd.num_stripes,
                sd.max_diamonds_per_stripe,
                sd.total_subdiamonds,
                2 * k - 1,
                k * k,
            ]
        )
    # Measured superstep labels of a real diamond evaluation.
    res = stencil1d.evaluate_diamond(64, k=4)
    label_hist = {}
    for label in res.trace.labels.tolist():
        label_hist[label] = label_hist.get(label, 0) + 1
    predicted = phase_counts(64, 4)
    return rows, label_hist, predicted


def test_e13_figure_1(benchmark):
    rows, label_hist, predicted = benchmark.pedantic(
        run_sweep, rounds=1, iterations=1
    )
    emit_table(
        "e13_diamond_decomposition",
        "E13  Figure 1: stripes of the side-n diamond with parameter k",
        ["n", "k", "stripes", "max/stripe", "subdiamonds", "2k-1", "k^2"],
        rows,
    )
    emit_table(
        "e13_phase_labels",
        "E13  measured superstep-label histogram of evaluate_diamond(64, k=4) "
        "vs predicted (2k-1)^i phases at label (i-1)*log k",
        ["label", "measured supersteps", "predicted phases at level"],
        [
            [l, label_hist.get(l, 0), next((p["phases"] for p in predicted if p["label"] == l), "-")]
            for l in sorted(label_hist)
        ],
    )
    for r in rows:
        assert r[2] == r[5] and r[4] == r[6] and r[3] == r[1]
    # Phase-start supersteps at label (i-1) log k exist for each level.
    for lvl in predicted[:2]:
        assert label_hist.get(lvl["label"], 0) >= lvl["phases"]
