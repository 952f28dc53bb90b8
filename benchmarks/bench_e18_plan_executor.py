"""E18 — plan-executor throughput: fused grid runner vs legacy serial sweep.

A portability study is a grid: one trace priced on every (topology,
policy, p) cell.  Every plan run compiles the deduplicated stage graph;
the executor only picks where its waves run.  This bench times a
24-cell grid several ways:

* ``run_sweep`` — ``ExperimentPlan.run(executor="serial")``: waves
  in-line, cells routed by the fused multi-superstep kernels;
* ``run_sweep_parallel`` — the same plan on the ``process`` substrate
  (a fork pool per wave, warm LRUs inherited copy-on-write);
* ``run_sweep_legacy`` — per-superstep loop routing (the fused gate
  forced off), the way grids were priced before the fused router;
* ``run_sweep_shm`` — the persistent zero-copy worker pool
  (``ShmSubstrate``, pool forced on so single-CPU recordings measure the
  real dispatch path rather than the in-line downgrade);
* ``run_sweep_store_cold`` / ``run_sweep_store_warm`` — the persistent
  cell-hash result store on a *declarative* grid (``@``-sourced plans
  are uncacheable by design): cold pays emission + folds + routes into
  a fresh sqlite file, warm reads every row back without computing
  anything;
* ``run_sweep_dag`` / ``run_sweep_dag_shm`` — a multi-algorithm
  shared-stage grid (each source priced on six topologies in both
  analytic and sim mode, so >60% of planned stage references hit a
  shared node), in-line and over the forced shm pool.  Its frame is
  checked, untimed, against the per-cell oracle (``oracle_grid_rows``).

All executor paths must produce bit-identical cell values.
``record_baseline.py`` records the timings; the headline ratios are
plan-vs-legacy (the fused engine win, hardware-independent) and
store-warm-vs-cold (the caching win), while the pool ratios reflect
however many cores the host actually grants (1 core => ~1x or below).
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from _util import emit_table
from repro.api import ExperimentPlan
from repro.exec import ShmSubstrate
from repro.machine.folding import clear_fold_cache
from repro.networks import clear_route_cache
from repro.util.caches import clear_caches

#: The (n,1)-stencil is the many-small-supersteps regime the fused
#: router targets (n=256 folds to ~1200 supersteps of a few hundred
#: messages each) — the workload where per-superstep loop overhead
#: dominated E11-style sweeps.
SCALE = dict(algorithm="stencil1d", n=256, ps=(16, 32, 64))
QUICK = dict(algorithm="stencil1d", n=64, ps=(8, 16))

TOPOLOGIES = ("ring", "torus2d", "hypercube", "butterfly")
POLICIES = ("dimension-order", "valiant")

#: Pre-emitted traces per configuration: emission (the algorithm run) is
#: identical in every path and stays outside the timed regions.
_sources: dict[tuple, object] = {}


def _plan(cfg) -> ExperimentPlan:
    key = tuple(sorted(cfg.items()))
    if key not in _sources:
        from repro.api import run

        _sources[key] = run(cfg["algorithm"], n=cfg["n"]).trace
    return ExperimentPlan.from_trace(
        _sources[key],
        ps=list(cfg["ps"]),
        topologies=TOPOLOGIES,
        policies=POLICIES,
        name="e18",
    )


def _cold() -> None:
    # Routed profiles (and folds) are memoised module-wide; every timed
    # run must price the grid from scratch or the comparison is bogus.
    clear_route_cache()
    clear_fold_cache()


def run_sweep(cfg=SCALE):
    """Serial plan executor over the fused routing engine."""
    _cold()
    return _plan(cfg).run(executor="serial")


def run_sweep_parallel(cfg=SCALE):
    """Worker-pool (fork) plan executor, cold caches in every child."""
    _cold()
    return _plan(cfg).run(executor="process", max_workers=4)


def run_sweep_legacy(cfg=SCALE):
    """The pre-plan serial path: per-superstep loop routing, cell by cell."""
    import repro.networks.routing as routing

    _cold()
    saved = routing._FUSED_MAX_CELLS
    routing._FUSED_MAX_CELLS = 0  # force the per-superstep loop
    try:
        return _plan(cfg).run(executor="serial")
    finally:
        routing._FUSED_MAX_CELLS = saved


def run_sweep_shm(cfg=SCALE):
    """The persistent zero-copy shared-memory pool (forced on, so a
    one-core recording measures the pool rather than the downgrade)."""
    _cold()
    return _plan(cfg).run(executor=ShmSubstrate(force=True))


#: Store workloads run a declarative grid (``from_trace`` plans hold an
#: in-memory ``@`` source, which the store refuses to cache) and pay for
#: emission inside the timed region — exactly the cost a warm store run
#: skips.
def _grid_plan(cfg) -> ExperimentPlan:
    return ExperimentPlan.grid(
        algorithms=[cfg["algorithm"]],
        ns=[cfg["n"]],
        ps=list(cfg["ps"]),
        topologies=TOPOLOGIES,
        policies=POLICIES,
        name="e18-store",
    )


_warm_store: dict[tuple, Path] = {}


def run_sweep_store_cold(cfg=SCALE):
    """Declarative grid into a fresh sqlite store: every cell misses."""
    clear_caches()
    fd, path = tempfile.mkstemp(suffix=".db", prefix="e18-cold-")
    os.close(fd)
    try:
        return _grid_plan(cfg).run(store=path)
    finally:
        os.unlink(path)


def run_sweep_store_warm(cfg=SCALE):
    """The same grid against an already-primed store: every cell hits,
    so no emission, fold, route or sim runs at all."""
    key = tuple(sorted(cfg.items()))
    if key not in _warm_store:
        fd, path = tempfile.mkstemp(suffix=".db", prefix="e18-warm-")
        os.close(fd)
        _warm_store[key] = Path(path)
        _grid_plan(cfg).run(store=path)  # prime once, outside best-of-N
    clear_caches()
    return _grid_plan(cfg).run(store=_warm_store[key])


#: The DAG-scheduler workload: a declarative multi-algorithm grid whose
#: cells overlap heavily — every (source, p, topology, policy) route is
#: shared by its analytic and sim cells, every (source, p) fold by all
#: twelve topology/policy pairs, every emitted source by all its cells.
#: Sources stay under the sim-fusion superstep gate, so sibling sim
#: stages also batch into fused cycle loops.
DAG_SOURCES = (("fft", 64), ("fft", 256), ("broadcast", 4096), ("prefix", 256))
DAG_SOURCES_QUICK = (("fft", 64), ("broadcast", 4096))
DAG_TOPOLOGIES = (
    "ring", "mesh2d", "torus2d", "hypercube", "fat-tree", "butterfly"
)


def _dag_plan(quick: bool = False) -> ExperimentPlan:
    sources = DAG_SOURCES_QUICK if quick else DAG_SOURCES
    cells: list = []
    for algorithm, n in sources:
        cells.extend(
            ExperimentPlan.grid(
                algorithms=[algorithm],
                ns=[n],
                ps=[8, 16],
                topologies=DAG_TOPOLOGIES,
                policies=POLICIES,
                modes=["analytic", "sim"],
            ).cells
        )
    return ExperimentPlan(cells, name="e18-dag")


def oracle_grid_rows(quick: bool = False) -> tuple:
    """Per-cell reference rows of the shared-stage grid (untimed): every
    source prepared, then each cell evaluated in order on cold caches."""
    from repro.api.plan import _PlanRuntime

    clear_caches()
    plan = _dag_plan(quick)
    runtime = _PlanRuntime(plan)
    runtime.prepare()
    return tuple(runtime.eval_cell(i) for i in range(len(plan)))


def run_sweep_dag(quick: bool = False):
    """The shared-stage grid, stage-graph waves executed in-line."""
    clear_caches()
    return _dag_plan(quick).run()


def run_sweep_dag_shm(quick: bool = False):
    """Stage-graph waves dispatched through the forced shm pool
    (cold-pool cost included, so one-core recordings price the real
    dispatch path)."""
    clear_caches()
    return _dag_plan(quick).run(executor=ShmSubstrate(force=True))


def test_e18_plan_executor(benchmark, quick):
    cfg = QUICK if quick else SCALE

    def all_three():
        _plan(cfg)  # emit the source trace outside every timed region
        t0 = time.perf_counter()
        serial = run_sweep(cfg)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run_sweep_parallel(cfg)
        t_parallel = time.perf_counter() - t0
        t0 = time.perf_counter()
        legacy = run_sweep_legacy(cfg)
        t_legacy = time.perf_counter() - t0
        return serial, parallel, legacy, t_serial, t_parallel, t_legacy

    serial, parallel, legacy, t_serial, t_parallel, t_legacy = benchmark.pedantic(
        all_three, rounds=1, iterations=1
    )
    cells = len(serial)
    assert cells >= (8 if quick else 24)
    # Executors and engines must agree bit-for-bit on every cell.
    assert serial.rows == parallel.rows
    assert serial.rows == legacy.rows

    vs_legacy = t_legacy / t_serial if t_serial > 0 else float("inf")
    vs_serial = t_serial / t_parallel if t_parallel > 0 else float("inf")
    routed = serial.column("routed_time")
    rows = [
        ["cells", cells, "-"],
        ["serial (fused)", round(t_serial, 3), "1.0x"],
        ["worker pool", round(t_parallel, 3), f"{vs_serial:.2f}x vs serial"],
        ["legacy loop", round(t_legacy, 3), f"{vs_legacy:.2f}x slower than fused"],
        ["sum routed_time", round(float(np.sum(routed)), 1), "-"],
    ]
    emit_table(
        "e18_plan_executor",
        f"E18  {cells}-cell grid: fused serial {t_serial:.3f}s, "
        f"pool {t_parallel:.3f}s, legacy {t_legacy:.3f}s",
        ["path", "seconds", "ratio"],
        rows,
    )
    if not quick:
        # The new engine must beat the legacy per-superstep serial path.
        assert vs_legacy > 1.2, f"fused plan only {vs_legacy:.2f}x vs legacy"


def test_e18_shm_and_store(benchmark, quick):
    cfg = QUICK if quick else SCALE
    serial = run_sweep(cfg)

    def shm_and_store():
        _plan(cfg)  # emit the @-source outside the shm timed region
        run_sweep_store_warm(cfg)  # prime the warm store outside timing
        t0 = time.perf_counter()
        shm = run_sweep_shm(cfg)
        t_shm = time.perf_counter() - t0
        t0 = time.perf_counter()
        cold = run_sweep_store_cold(cfg)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_sweep_store_warm(cfg)
        t_warm = time.perf_counter() - t0
        return shm, cold, warm, t_shm, t_cold, t_warm

    shm, cold, warm, t_shm, t_cold, t_warm = benchmark.pedantic(
        shm_and_store, rounds=1, iterations=1
    )
    # The pool is bit-identical to serial; the store replays its own
    # cold rows exactly and reports a full hit sweep.
    assert shm.rows == serial.rows
    assert shm.metadata["executor_effective"] == "shm"
    assert warm.rows == cold.rows
    assert warm.metadata["store_hits"] == len(cold)
    assert warm.metadata["store_misses"] == 0

    warm_vs_cold = t_cold / t_warm if t_warm > 0 else float("inf")
    shm_vs_serial_note = f"{t_shm:.3f}s on {os.cpu_count() or 1} core(s)"
    emit_table(
        "e18_shm_and_store",
        f"E18b  shm pool {shm_vs_serial_note}; store warm "
        f"{t_warm:.3f}s vs cold {t_cold:.3f}s ({warm_vs_cold:.1f}x)",
        ["path", "seconds", "note"],
        [
            ["shm pool", round(t_shm, 3), shm_vs_serial_note],
            ["store cold", round(t_cold, 3), "fresh sqlite, all misses"],
            ["store warm", round(t_warm, 3), f"{warm_vs_cold:.1f}x vs cold"],
        ],
    )
    if not quick:
        # Warm hits skip emission, folds, routes and sims entirely.
        assert warm_vs_cold > 5.0, f"warm store only {warm_vs_cold:.2f}x"


def test_e18_dag_scheduler(benchmark, quick):
    def dag_and_shm():
        t0 = time.perf_counter()
        dag = run_sweep_dag(quick)
        t_dag = time.perf_counter() - t0
        t0 = time.perf_counter()
        shm = run_sweep_dag_shm(quick)
        t_shm = time.perf_counter() - t0
        return dag, shm, t_dag, t_shm

    dag, shm, t_dag, t_shm = benchmark.pedantic(
        dag_and_shm, rounds=1, iterations=1
    )
    # The graph contract: frames bit-identical to the per-cell oracle on
    # every substrate, each unique stage executed once (the dedup
    # counters land in the frame metadata).
    oracle = oracle_grid_rows(quick)
    assert dag.rows == oracle
    assert shm.rows == oracle
    planned = dag.metadata["dag_stages_planned"]
    unique = dag.metadata["dag_stages_unique"]
    assert planned == 4 * len(dag)

    emit_table(
        "e18_dag_scheduler",
        f"E18c  {len(dag)}-cell shared-stage grid: in-line {t_dag:.3f}s, "
        f"shm {t_shm:.3f}s; {planned} planned stages -> {unique} unique",
        ["path", "seconds", "note"],
        [
            ["in-line waves", round(t_dag, 3), "1.0x"],
            ["shm waves", round(t_shm, 3),
             f"{t_dag / t_shm if t_shm > 0 else float('inf'):.2f}x vs in-line "
             f"on {os.cpu_count() or 1} core(s)"],
            ["stages planned", planned, "-"],
            ["stages unique", unique,
             f"shared ratio {dag.metadata['shared_stage_ratio']:.2f}"],
        ],
    )
