"""Stage-graph plan execution: run shared work once, not per cell.

Grid cells share almost everything: every (topology, policy, p) pair
re-prices the same emitted trace, every arbiter re-simulates the same
routed fold.  :func:`run_graph`, the one execution path of
``ExperimentPlan.run``, turns the cells into a deduplicated DAG of
stage nodes ::

    emit(algorithm, n, seed) -> fold(trace, p) -> route(fold, topology, policy)
        -> sim(route, arbiter, seed, flits)   [mode="sim" cells]
        -> metrics(route, sigma, ...)         [analytic cells]

keyed like the fold/route/sim LRUs, so each unique stage runs once, and
executes it in waves: emit is ``runtime.prepare``; the route wave runs
every LRU-cold route node (folds run inside it) on the run's substrate
(:mod:`repro.exec.local`, :mod:`repro.exec.shm`); the sim wave fuses
sibling small-superstep nodes into :func:`repro.sim.engine.simulate_many`
calls (gate :data:`FUSE_MAX_SUPERSTEPS`); assembly runs
``runtime.eval_cell`` over the now-warm LRUs, in chunks interleaved with
the sim wave so profiles are consumed before they can be evicted.  Rows
are bit-identical to per-cell evaluation by construction: ``eval_cell``
performs the same lookups, it just never misses.  Worker artifacts are
re-inserted through the ``seed_*_cache`` hooks, which re-freeze arrays.

Dedup counters land on the frame's metadata and aggregate process-wide
under ``repro.cache_stats()["dag"]``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.util import sanitize
from repro.util.caches import register_cache

if TYPE_CHECKING:
    from repro.exec.local import Substrate

__all__ = [
    "run_graph", "StageGraph", "stage_kernel", "STAGE_KERNELS",
    "FUSE_MAX_SUPERSTEPS", "dag_stats", "clear_dag_stats",
]


#: Sim nodes whose (unfolded) trace has at most this many supersteps
#: join a fused :func:`simulate_many` batch; longer traces simulate per
#: stage.  The fused cycle loop amortises per-phase Python overhead
#: across cells but pays one merged sort over every cell's supersteps —
#: measured on this grid family it wins ~1.4-1.6x below ~twenty
#: supersteps per cell and loses ~4x at several hundred.
FUSE_MAX_SUPERSTEPS = 64

#: Cold sim nodes executed (and their dependent cells assembled) per
#: scheduling chunk.  Must stay safely below the sim LRU capacity (128):
#: a chunk's profiles are consumed by assembly before the next chunk's
#: insertions can evict them.
SIM_CHUNK = 32


# ----------------------------------------------------------------------
# Stage kernels
# ----------------------------------------------------------------------
#: kind -> the pure function executing one stage node (or a batch of
#: siblings).  Lint's RPR007 holds every kernel to stage purity: the same
#: node must compute the same artifact in any thread or worker.
STAGE_KERNELS: dict[str, Callable] = {}

_kernel_lock = threading.Lock()


def stage_kernel(kind: str) -> Callable:
    """Register a function as the executor of one DAG stage kind."""

    def deco(fn: Callable) -> Callable:
        with _kernel_lock:
            STAGE_KERNELS[kind] = fn
        return fn

    return deco


@stage_kernel("route")
def _route_stage(trace: Any, topo: Any, policy: Any) -> Any:
    """Execute one route node (folding on demand); memoised in-process."""
    from repro.networks import route_trace

    return route_trace(trace, topo, policy)


@stage_kernel("sim")
def _sim_stage(
    trace: Any, topo: Any, policy: Any, arbiter: str, arbiter_seed: int, flits: int
) -> Any:
    """Execute one sim node through the per-trace entry point."""
    from repro.sim.engine import simulate_trace

    return simulate_trace(
        trace, topo, policy, arbiter, seed=arbiter_seed, flits_per_message=flits
    )


@stage_kernel("sim-batch")
def _sim_batch_stage(specs: "list[tuple]", gate: int) -> list:
    """Execute a batch of sim nodes, fusing the small-superstep ones.

    ``specs`` entries are ``(trace, topo, policy, arbiter, arbiter_seed,
    flits)``.  Nodes of at most ``gate`` supersteps fuse through
    :func:`simulate_many`, grouped by ``flits``; the rest simulate per
    stage.  Profiles come back in spec order, bit-identical either way.
    """
    from repro.sim import by_arbiter
    from repro.sim.engine import simulate_many

    out: list = [None] * len(specs)
    fuse_groups: dict[int, list[int]] = {}
    for j, (trace, topo, policy, arb, aseed, flits) in enumerate(specs):
        if trace.num_supersteps <= gate:
            fuse_groups.setdefault(flits, []).append(j)
        else:
            out[j] = _sim_stage(trace, topo, policy, arb, aseed, flits)
    for flits, idxs in fuse_groups.items():
        items = [
            (specs[j][0], specs[j][1], specs[j][2],
             by_arbiter(specs[j][3], specs[j][4]))
            for j in idxs
        ]
        for j, prof in zip(idxs, simulate_many(items, flits_per_message=flits)):
            out[j] = prof
    return out


# ----------------------------------------------------------------------
# Process-wide dedup counters (the "dag" cache_stats provider)
# ----------------------------------------------------------------------
_stats_lock = threading.Lock()
_totals = dict.fromkeys(
    ("runs", "stages_planned", "stages_unique", "stages_executed", "stages_cache_hit"),
    0,
)


def dag_stats() -> dict[str, int]:
    """Aggregate scheduler counters across every DAG-scheduled run."""
    with _stats_lock:
        return dict(_totals)


def clear_dag_stats() -> None:
    """Reset the aggregate counters (wired into ``repro.clear_caches``)."""
    with _stats_lock:
        for key in _totals:
            _totals[key] = 0


def _accumulate(counters: dict) -> None:
    with _stats_lock:
        _totals["runs"] += 1
        for key in ("planned", "unique", "executed", "cache_hit"):
            _totals[f"stages_{key}"] += counters[key]


register_cache("dag", dag_stats, clear_dag_stats)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
class StageGraph:
    """The deduplicated stage DAG of one plan run over ``indices``.

    Built after ``runtime.prepare`` (node identity needs each source's
    virtual processor count for cells with ``p=None``).  Holds the
    unique route/sim nodes with their live arguments, the cell lists
    hanging off every sim node, and the dedup counters.
    """

    def __init__(self, runtime: Any, indices: Sequence[int]) -> None:
        from repro.networks import RoutingPolicy, by_policy

        self.runtime = runtime
        self.indices = list(indices)
        #: route_key -> (trace, topo, policy)
        self.route_nodes: dict[tuple, tuple] = {}
        #: sim_key -> (trace, topo, policy, arbiter, arbiter_seed, flits)
        self.sim_nodes: dict[tuple, tuple] = {}
        #: sim_key -> cell indices assembled once the node's profile exists
        self.cells_by_sim: dict[tuple, list[int]] = {}
        #: cells with no sim dependency (assembled right after routes)
        self.plain_cells: list[int] = []
        emit_keys: set = set()
        fold_keys: set = set()
        metrics_keys: set = set()
        planned = 0
        policies: dict[tuple, Any] = {}
        for i in self.indices:
            cell = runtime.cells[i]
            skey = runtime._source_key(cell)
            planned += 1  # one emit reference per cell
            emit_keys.add(skey)
            if cell.topology is None:
                self.plain_cells.append(i)
                continue
            tm = runtime._tms[skey]
            p = cell.p if cell.p is not None else tm.v
            policy = cell.policy if cell.policy is not None else "dimension-order"
            if not isinstance(policy, RoutingPolicy):
                pkey = (policy, cell.policy_seed)
                policy = policies.get(pkey)
                if policy is None:
                    policy = policies[pkey] = by_policy(*pkey)
            route_key = (skey, cell.topology, p, policy.cache_key())
            planned += 3  # fold + route + (sim | metrics) references
            fold_keys.add((skey, p))
            if route_key not in self.route_nodes:
                self.route_nodes[route_key] = (
                    tm.trace, runtime.topology(cell.topology, p), policy
                )
            if cell.mode == "sim":
                arb = (cell.arbiter, cell.arbiter_seed, cell.flits_per_message)
                sim_key = route_key + arb
                self.sim_nodes.setdefault(sim_key, self.route_nodes[route_key] + arb)
                self.cells_by_sim.setdefault(sim_key, []).append(i)
            else:
                metrics_keys.add(route_key + (cell.sigma, cell.relative_to_dbsp))
                self.plain_cells.append(i)
        self.counters = dict(
            planned=planned,
            unique=len(emit_keys) + len(fold_keys) + len(self.route_nodes)
            + len(self.sim_nodes) + len(metrics_keys),
            executed=0,
            cache_hit=0,
            emit_nodes=len(emit_keys),
            fold_nodes=len(fold_keys),
            route_nodes=len(self.route_nodes),
            sim_nodes=len(self.sim_nodes),
            metrics_nodes=len(metrics_keys),
        )

    @property
    def shared_ratio(self) -> float:
        """Fraction of planned stage references served by a shared node."""
        planned = self.counters["planned"]
        return 1.0 - self.counters["unique"] / planned if planned else 0.0


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_graph(
    runtime: Any,
    substrate: "Substrate",
    indices: Sequence[int],
    *,
    max_workers: int | None = None,
) -> tuple[list[tuple], dict]:
    """Rows for ``indices`` (in order) plus the run's metadata.

    Prepares the sources, compiles the :class:`StageGraph` and runs its
    route and sim waves on ``substrate``, assembling each cell as soon
    as its stages are warm.
    """
    from repro.networks import peek_route_cache
    from repro.sim.engine import peek_sim_cache

    indices = list(indices)
    sources_before = len(runtime._tms)
    runtime.prepare(indices)
    graph = StageGraph(runtime, indices)
    graph.counters["executed"] += len(runtime._tms) - sources_before
    meta: dict[str, Any] = {}
    waves = substrate.open(runtime, indices, max_workers, meta)
    rows: dict[int, tuple] = {}

    def assemble(cells: list[int]) -> None:
        for i in cells:
            rows[i] = _assemble(runtime, i)

    try:
        waves.run_routes(_split(graph, graph.route_nodes, peek_route_cache)[1])
        assemble(graph.plain_cells)
        warm, cold = _split(graph, graph.sim_nodes, peek_sim_cache)
        for sk in warm:
            assemble(graph.cells_by_sim[sk])
        # Chunked execution interleaved with assembly: each chunk's
        # profiles are consumed before later chunks can evict them.
        for lo in range(0, len(cold), SIM_CHUNK):
            chunk = cold[lo : lo + SIM_CHUNK]
            waves.run_sims(chunk)
            for sk, _node in chunk:
                assemble(graph.cells_by_sim[sk])
    finally:
        waves.close()
    _accumulate(graph.counters)
    for key in ("planned", "unique", "executed", "cache_hit"):
        meta[f"dag_stages_{key}"] = graph.counters[key]
    meta["shared_stage_ratio"] = round(graph.shared_ratio, 4)
    return [rows[i] for i in indices], meta


def _split(graph: StageGraph, nodes: dict, peek: Callable) -> tuple[list, list]:
    """LRU-warm node keys and cold ``(key, node)`` pairs, both counted."""
    warm, cold = [], []
    for key, node in nodes.items():
        if peek(*node) is None:
            cold.append((key, node))
        else:
            warm.append(key)
    graph.counters["cache_hit"] += len(warm)
    graph.counters["executed"] += len(cold)
    return warm, cold


def _assemble(runtime: Any, i: int) -> tuple:
    """Assemble one cell row off the warm LRUs (sampled cross-check
    against a fresh, cache-bypassing per-cell recompute under
    ``REPRO_SANITIZE=1``)."""
    row = runtime.eval_cell(i)
    if sanitize.enabled() and sanitize.should_spotcheck():
        sanitize.check_row_parity(row, runtime.fresh_eval(i), f"dag cell {i}")
    return row
