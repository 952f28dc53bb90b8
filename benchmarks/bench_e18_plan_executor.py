"""E18 — plan-executor throughput: serial, shm pool and result store.

A portability study is a grid: one trace priced on every (topology,
policy, p) cell.  Every plan run compiles the deduplicated stage graph;
the executor only picks where its waves run.  This bench times a
24-cell grid several ways:

* ``run_sweep`` — ``ExperimentPlan.run(executor="serial")``: waves
  in-line, cells routed by the fused multi-superstep kernels;
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
  checked, untimed, against the per-cell oracle (``oracle_grid_rows``);
* ``run_wide`` — an analytic plan with more unique route nodes than
  ``ROUTE_CACHE`` holds, serial against the forced shm pool: each run
  keeps the profiles its route wave returns, so no node is routed twice
  however far the plan outgrows the LRU.

All executor paths must produce bit-identical cell values.
``record_baseline.py`` records the timings; the headline ratio is
store-warm-vs-cold (the caching win), while the pool ratios reflect
however many cores the host actually grants (1 core => ~1x or below).
"""

import atexit
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from _util import emit_table
from repro.api import ExperimentPlan
from repro.exec import ShmSubstrate
from repro.machine.trace import Trace
from repro.networks.routing import ROUTE_CACHE
from repro.util.caches import cache_stats, clear_caches

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
_sources: dict[tuple, Trace] = {}


def _plan(cfg) -> ExperimentPlan:
    """The grid over a fresh ``Trace`` on the pre-emitted columns.

    Folds, level rows and Valiant legs are memoised on the trace
    itself, where ``clear_caches()`` cannot reach them; a new trace
    (O(1): same arrays and pattern, new cache token, empty fold memo)
    makes every run fold and draw from scratch.
    """
    key = tuple(sorted(cfg.items()))
    if key not in _sources:
        from repro.api import run

        _sources[key] = run(cfg["algorithm"], n=cfg["n"]).trace
    source = _sources[key]
    fresh = Trace(
        source.v, source.labels, source.offsets, source.src, source.dst,
        source.pattern,
    )
    fresh.is_validated = source.is_validated
    return ExperimentPlan.from_trace(
        fresh,
        ps=list(cfg["ps"]),
        topologies=TOPOLOGIES,
        policies=POLICIES,
        name="e18",
    )


def run_sweep(cfg=SCALE):
    """Serial plan executor over the fused routing engine."""
    plan = _plan(cfg)
    clear_caches()  # every timed run prices the grid from scratch
    return plan.run(executor="serial")


def run_sweep_shm(cfg=SCALE):
    """The persistent zero-copy shared-memory pool (forced on, so a
    one-core recording measures the pool rather than the downgrade)."""
    plan = _plan(cfg)
    clear_caches()
    return plan.run(executor=ShmSubstrate(force=True))


def _assert_cold_folds() -> None:
    """The run just timed folded its trace afresh (no fold-memo hit
    carried over from an earlier run)."""
    fold = cache_stats()["fold"]
    assert fold["misses"] > 0, fold


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
        # Timed calls reuse the primed store, so it lives until exit.
        atexit.register(_warm_store[key].unlink, missing_ok=True)
        _grid_plan(cfg).run(store=path)  # prime once, outside best-of-N
    clear_caches()
    return _grid_plan(cfg).run(store=_warm_store[key])


#: The DAG-scheduler workload: a declarative multi-algorithm grid whose
#: cells overlap heavily — every (source, p, topology, policy) route is
#: shared by its analytic and sim cells, every (source, p) fold by all
#: twelve topology/policy pairs, every emitted source by all its cells.
#: Sibling sim stages batch into fused cycle loops.
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

    def serial_sweep():
        _plan(cfg)  # emit the source trace outside every timed region
        t0 = time.perf_counter()
        serial = run_sweep(cfg)
        return serial, time.perf_counter() - t0

    serial, t_serial = benchmark.pedantic(serial_sweep, rounds=1, iterations=1)
    _assert_cold_folds()
    cells = len(serial)
    assert cells >= (8 if quick else 24)
    routed = serial.column("routed_time")
    rows = [
        ["cells", cells],
        ["serial seconds", round(t_serial, 3)],
        ["sum routed_time", round(float(np.sum(routed)), 1)],
    ]
    emit_table(
        "e18_plan_executor",
        f"E18  {cells}-cell grid: serial {t_serial:.3f}s",
        ["quantity", "value"],
        rows,
    )


def test_e18_shm_and_store(benchmark, quick):
    cfg = QUICK if quick else SCALE
    serial = run_sweep(cfg)
    _assert_cold_folds()  # a second serial run in this process, still cold

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


#: Five pre-emitted sources x five p x six topologies x two policies:
#: 300 unique route nodes, more than ``ROUTE_CACHE``'s 256 slots.
WIDE_SOURCES = (
    ("fft", 256), ("prefix", 256), ("broadcast", 256), ("sort", 64), ("matmul", 64)
)
_wide: list = []


def _wide_plan() -> ExperimentPlan:
    if not _wide:
        from repro.api import run

        sources = {f"{a}{n}": run(a, n=n).trace for a, n in WIDE_SOURCES}
        _wide.append(ExperimentPlan.grid(
            algorithms=[f"@{name}" for name in sources],
            ps=[4, 8, 16, 32, 64],
            topologies=DAG_TOPOLOGIES,
            policies=POLICIES,
            sources=sources,
            name="e18-wide",
        ))
    return _wide[0]


def run_wide(executor="serial"):
    """The wide analytic plan from cold caches on ``executor``."""
    clear_caches()
    return _wide_plan().run(executor=executor)


def test_e18_routes_beyond_lru(benchmark, quick):
    plan = _wide_plan()  # emission stays outside the timed region

    def serial_and_shm():
        t0 = time.perf_counter()
        serial = run_wide()
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        shm = run_wide(ShmSubstrate(workers=2, force=True))
        t_shm = time.perf_counter() - t0
        return serial, shm, t_serial, t_shm

    serial, shm, t_serial, t_shm = benchmark.pedantic(
        serial_and_shm, rounds=1, iterations=1
    )
    assert shm.rows == serial.rows
    assert shm.metadata["executor_effective"] == "shm"
    routes = len(plan)  # one analytic cell per unique route node
    assert routes > ROUTE_CACHE.maxsize
    ratio = t_shm / t_serial if t_serial > 0 else float("inf")
    emit_table(
        "e18_routes_beyond_lru",
        f"E18d  {routes} route nodes (LRU holds {ROUTE_CACHE.maxsize}): "
        f"serial {t_serial:.3f}s, shm {t_shm:.3f}s ({ratio:.2f}x)",
        ["path", "seconds", "note"],
        [
            ["serial", round(t_serial, 3), f"{routes} route nodes"],
            ["shm", round(t_shm, 3),
             f"shm/serial {ratio:.2f} on {os.cpu_count() or 1} core(s)"],
        ],
    )
