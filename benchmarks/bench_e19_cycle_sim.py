"""E19 — cycle-accurate bound validation: measured/(C+D) constants.

The analytic engine prices every superstep as congestion + dilation + 1,
leaning on the Leighton–Maggs–Rao guarantee that an O(C+D) schedule
exists.  This bench runs the E11 grid — the three Section-4 workloads on
all six topologies under both routing policies — through the flit-level
simulator (``repro.sim``) and reports the hidden constant per cell: the
worst per-superstep ratio of measured store-and-forward cycles to the
analytic C+D price.

The paper-shaped claim: the constant sits in a narrow band around 1
(store-and-forward with per-cycle edge service *is* an O(C+D) schedule;
values below 1 simply reflect C+D double-counting the bottleneck flit's
own travel), and never exceeds 4 at the default FIFO arbitration — the
acceptance band recorded into ``BENCH_baseline.json`` as
``e19_sim_bound_constants``.

Two timed sweeps cover both executors: ``run_sweep`` drives the
pure-numpy fast engine (cross-cell batched via ``validate_grid``) and
``run_sweep_reference`` the per-cycle reference loop — their ratio is
the recorded engine speedup, their reports are bit-identical.
"""

import time

import numpy as np

from _util import emit_table, flatness
from repro.networks import TOPOLOGIES, by_name, by_policy, route_trace
from repro.sim import clear_sim_cache, validate_grid

#: The E11 trio at its classic operating points.
SCALE = (("matmul", 256, 64), ("fft", 1024, 16), ("sort", 1024, 8))
QUICK = (("matmul", 64, 16), ("fft", 256, 8), ("sort", 64, 8))

TOPO_NAMES = tuple(TOPOLOGIES)
POLICY_NAMES = ("dimension-order", "valiant")
THRESHOLD = 4.0

#: Pre-emitted traces per configuration: emission and the *analytic*
#: profiles are identical inputs on every run and stay outside the timed
#: region — the timing isolates the cycle loop itself.
_sources: dict[tuple, list] = {}


def _cells(cfg) -> list:
    key = tuple(cfg)
    if key not in _sources:
        from repro.api import run

        cells = []
        for alg, n, p in cfg:
            trace = run(alg, n=n).trace
            for topo_name in TOPO_NAMES:
                topo = by_name(topo_name, p)
                for policy_name in POLICY_NAMES:
                    policy = by_policy(policy_name, seed=11)
                    route_trace(trace, topo, policy)  # warm the analytic LRU
                    cells.append((f"{alg}(p={p})", trace, topo, policy))
        _sources[key] = cells
    return _sources[key]


def _reports(cfg, engine=None, flits=1) -> list:
    """Per-cell bound reports (rides whatever is in the sim LRU).

    Uses the batched :func:`validate_grid` so a cold sweep fuses every
    cache-missing cell into one cycle loop — reports stay bit-identical
    to per-cell :func:`validate_bound` calls.
    """
    cells = _cells(cfg)
    reports = validate_grid(
        [(trace, topo, policy) for _, trace, topo, policy in cells],
        flits_per_message=flits,
        engine=engine,
    )
    return [
        (label, topo.name, policy.name, report)
        for (label, _, topo, policy), report in zip(cells, reports)
    ]


def run_sweep(cfg=SCALE):
    """Simulate the whole grid cold through the pure-numpy fast engine
    (pinned with ``engine="fast"`` whatever ``REPRO_SIM_ENGINE`` says)."""
    _cells(cfg)
    clear_sim_cache()
    return _reports(cfg, engine="fast")


def run_sweep_reference(cfg=SCALE):
    """The same grid through the reference per-cycle loop (the timing
    denominator of ``e19_sim_engine_speedup_fast_vs_reference``)."""
    _cells(cfg)
    clear_sim_cache()
    return _reports(cfg, engine="reference")


def bound_table(cfg=SCALE, flits: int = 1) -> dict[str, float]:
    """(topology/policy) -> worst measured/(F*C+D) constant over the grid.

    This is the table ``record_baseline.py`` persists into
    ``BENCH_baseline.json``: one hidden LMR constant per cell of the E11
    grid (max over algorithms and supersteps).  Unlike :func:`run_sweep`
    it does not clear the sim LRU, so reading the ``flits=1`` table
    after a timed sweep is pure cache hits; ``flits > 1`` tables
    simulate the grid at that serialisation factor.
    """
    table: dict[str, float] = {}
    for _, topo_name, policy_name, report in _reports(cfg, flits=flits):
        cell = f"{topo_name}/{policy_name}"
        table[cell] = round(max(table.get(cell, 0.0), report.max_ratio), 4)
    return table


def test_e19_cycle_sim(benchmark, quick):
    cfg = QUICK if quick else SCALE
    _cells(cfg)  # emit traces + analytic profiles outside the timed region

    t0 = time.perf_counter()
    reports = benchmark.pedantic(run_sweep, args=(cfg,), rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0

    per_cell: dict[tuple, list] = {}
    for _, topo_name, policy_name, report in reports:
        per_cell.setdefault((topo_name, policy_name), []).append(report)
    rows = []
    for (topo_name, policy_name), cell_reports in per_cell.items():
        max_ratio = max(r.max_ratio for r in cell_reports)
        mean_ratio = float(np.mean([r.mean_ratio for r in cell_reports]))
        cycles = sum(r.profile.total_cycles for r in cell_reports)
        rows.append([topo_name, policy_name, cycles, mean_ratio, max_ratio])
        # The acceptance band: the analytic price is never optimistic by
        # more than the threshold constant, and conservation says the
        # measured schedule can never be faster than half of C+D.
        assert max_ratio <= THRESHOLD, (topo_name, policy_name, max_ratio)
        assert all(r.mean_ratio >= 0.5 - 1e-9 for r in cell_reports)
        assert all(r.ok for r in cell_reports)
    emit_table(
        "e19_cycle_sim",
        f"E19  measured/(C+D) constants, {len(reports)} cells in {elapsed:.2f}s "
        f"(threshold {THRESHOLD:g})",
        ["topology", "policy", "cycles", "mean_ratio", "max_ratio"],
        rows,
    )
    # The constant band is *flat*: no (topology, policy) cell hides an
    # asymptotic gap between the analytic and the measured engine.
    assert flatness([r[4] for r in rows]) < 8.0
