"""E12 — Theorem 5.3 / Lemma 5.1: the ascend–descend protocol.

On the canonical fullness-but-not-wiseness pattern (VP_0 sends m messages
to VP_{v/2}), compare plain folding vs the ascend–descend execution on
bandwidth-asymmetric D-BSPs: the protocol must win by growing factors as
the machine's g_0 grows, while on already-wise traces it costs at most
the theorem's ~log^2 p overhead.
"""

import numpy as np

from _util import emit_table
from repro.core import TraceMetrics, measured_alpha, measured_gamma
from repro.core.ascend_descend import ascend_descend_trace
from repro.machine.program import ScheduleBuilder
from repro.models import mesh_dbsp

from conftest import *  # noqa


def run_sweep():
    rows = []
    for p in (16, 64, 256):
        m = 16 * p
        builder = ScheduleBuilder(p)
        builder.superstep(0, np.zeros(m, np.int64), np.full(m, p // 2, np.int64))
        t = builder.build()
        tm = TraceMetrics(t)
        tilde = ascend_descend_trace(t, p)
        tm_t = TraceMetrics(tilde)
        mach = mesh_dbsp(p, d=1)
        rows.append(
            [
                p,
                m,
                round(measured_gamma(tm, p), 2),
                round(measured_alpha(tm, p), 4),
                round(measured_alpha(tm_t, p), 3),
                int(tm.D_machine(mach)),
                int(tm_t.D_machine(mach)),
                round(tm.D_machine(mach) / tm_t.D_machine(mach), 2),
            ]
        )
    return rows


def test_e12_ascend_descend(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit_table(
        "e12_ascend_descend",
        "E12  Theorem 5.3 (mesh1d): plain folding vs ascend-descend on the "
        "full-but-not-wise pattern",
        ["p", "msgs", "gamma", "alpha raw", "alpha a-d", "D plain", "D a-d", "speedup"],
        rows,
    )
    # Protocol rescues the unbalanced pattern, increasingly so with p.
    speedups = [r[7] for r in rows]
    assert speedups[-1] > speedups[0]
    assert speedups[-1] > 2.0
    # And restores constant wiseness (Theorem 5.3's proof step): the raw
    # pattern's alpha vanishes like 1/p while A-tilde's stays Theta(1).
    for r in rows:
        assert r[4] >= 0.3 > r[3] or r[4] > r[3]
    assert rows[-1][3] < 0.05 < rows[-1][4]
