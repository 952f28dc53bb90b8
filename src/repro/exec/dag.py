"""Stage-graph plan execution: run shared work once, not per cell.

Grid cells share almost everything: every (topology, policy, p) pair
re-prices the same emitted trace, every arbiter re-simulates the same
routed fold.  :func:`run_graph`, the one execution path of
``ExperimentPlan.run``, turns the cells into a deduplicated DAG of
stage nodes ::

    emit(algorithm, n, seed) -> fold(trace, p) -> route(fold, topology, policy)
        -> sim(route, arbiter, seed, flits)   [mode="sim" cells]
        -> metrics(route, sigma, ...)         [analytic cells]

keyed like the fold/route/sim LRUs, so each unique stage runs once.
Emit is ``runtime.prepare``; route and then sim nodes run in one wave
each through the one wave step, :func:`_wave`: probe each node once in
its LRU, hand the cold ones to the run's substrate
(:mod:`repro.exec.local`, :mod:`repro.exec.shm`), which runs the kind's
:data:`STAGE_KERNELS` entry (folds run inside the route kernel), put
the artifacts into the LRU and keep them all.  LRU keys name the
``Trace`` object and each run re-emits its registry sources, so later
runs hit only through a reused trace (``@`` sources, ``Pipeline``
chains, direct ``route_trace``/``simulate_trace`` calls).  Rows are
built last by the pure ``runtime.row`` from those artifacts, so LRU
eviction never forces a recompute, and they are bit-identical to
per-cell evaluation (``runtime.eval_cell``): both call ``row`` on the
same profiles.

Dedup counters land on the frame's metadata and aggregate process-wide
under ``repro.cache_stats()["dag"]``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.util import sanitize
from repro.util.caches import LRU, Counters

if TYPE_CHECKING:
    from repro.exec.local import Substrate

__all__ = [
    "run_graph", "StageGraph", "stage_kernel", "STAGE_KERNELS",
]


# ----------------------------------------------------------------------
# Stage kernels
# ----------------------------------------------------------------------
#: kind -> the pure batch function computing a wave's cold nodes of that
#: kind, artifacts in node order.  Lint's RPR007 holds every kernel to
#: stage purity: the same node must compute the same artifact in any
#: worker.
STAGE_KERNELS: dict[str, Callable[[list], list]] = {}

_kernel_lock = threading.Lock()


def stage_kernel(kind: str) -> Callable:
    """Register a function as the executor of one DAG stage kind."""

    def deco(fn: Callable) -> Callable:
        with _kernel_lock:
            STAGE_KERNELS[kind] = fn
        return fn

    return deco


@stage_kernel("route")
def _route_kernel(nodes: list[tuple]) -> list:
    """Route ``(trace, topo, policy)`` nodes, folding on demand."""
    from repro.networks.routing import compute_route

    return [compute_route(*node) for node in nodes]


@stage_kernel("sim")
def _sim_kernel(nodes: list[tuple]) -> list:
    """Simulate ``(trace, topo, policy, arbiter, arbiter_seed, flits,
    routed)`` nodes, ``routed`` being the node's route profile.

    All of them go to one :func:`~repro.sim.engine.compute_sims` call.
    """
    from repro.sim import by_arbiter
    from repro.sim.engine import compute_sims

    return compute_sims(
        [node[:3] + (by_arbiter(*node[3:5]), node[5]) for node in nodes],
        [node[6] for node in nodes],
    )


#: Dedup counters summed over every DAG-scheduled run (the ``dag`` entry
#: of ``repro.cache_stats()``).
DAG_COUNTERS = Counters(
    "dag",
    "runs", "stages_planned", "stages_unique", "stages_executed", "stages_cache_hit",
)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
class StageGraph:
    """The deduplicated stage DAG of one plan run over ``indices``.

    Built after ``runtime.prepare`` (node identity needs each source's
    virtual processor count for cells with ``p=None``).  Holds the
    unique route/sim nodes with their live arguments, each cell's
    route and sim node keys, and the dedup counters.
    """

    def __init__(self, runtime: Any, indices: Sequence[int]) -> None:
        #: route_key -> (trace, topo, policy)
        self.route_nodes: dict[tuple, tuple] = {}
        #: sim_key -> (trace, topo, policy, arbiter, arbiter_seed, flits)
        self.sim_nodes: dict[tuple, tuple] = {}
        #: cell index -> (route_key, sim_key), ``None`` where it has none
        self.cell_nodes: dict[int, tuple[Any, Any]] = {}
        emit_keys: set = set()
        fold_keys: set = set()
        metrics_keys: set = set()
        planned = 0
        for i in indices:
            cell = runtime.cells[i]
            skey = runtime._source_key(cell)
            planned += 1  # one emit reference per cell
            emit_keys.add(skey)
            if cell.topology is None:
                self.cell_nodes[i] = (None, None)
                continue
            _, topo, policy = node = runtime.route_args(cell)
            route_key = (skey, cell.topology, topo.p, policy.cache_key())
            planned += 3  # fold + route + (sim | metrics) references
            fold_keys.add((skey, topo.p))
            self.route_nodes.setdefault(route_key, node)
            sim_key = None
            if cell.mode == "sim":
                arb = (cell.arbiter, cell.arbiter_seed, cell.flits_per_message)
                sim_key = route_key + arb
                self.sim_nodes.setdefault(sim_key, node + arb)
            else:
                metrics_keys.add(route_key + (cell.sigma, cell.relative_to_dbsp))
            self.cell_nodes[i] = (route_key, sim_key)
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
    runtime: Any, substrate: "Substrate", indices: Sequence[int]
) -> tuple[list[tuple], dict]:
    """Rows for ``indices`` (in order) plus the run's metadata.

    Prepares the sources, compiles the :class:`StageGraph`, runs its
    route wave and then its sim wave on ``substrate``, and builds every
    row from the profiles the waves returned.
    """
    from repro.networks.routing import ROUTE_CACHE, route_key
    from repro.sim.engine import SIM_CACHE, sim_key

    indices = list(indices)
    sources_before = len(runtime._tms)
    runtime.prepare(indices)
    graph = StageGraph(runtime, indices)
    graph.counters["executed"] += len(runtime._tms) - sources_before
    meta: dict[str, Any] = {}
    waves = substrate.open(runtime, indices, meta)
    try:
        routed = _wave(graph, waves, "route", graph.route_nodes, ROUTE_CACHE, route_key)
        sim_nodes = {
            key: node + (routed[key[:4]],) for key, node in graph.sim_nodes.items()
        }
        sims = _wave(
            graph, waves, "sim", sim_nodes, SIM_CACHE, lambda *node: sim_key(*node[:6])
        )
    finally:
        waves.close()
    rows: list[tuple] = []
    for i in indices:
        rkey, skey = graph.cell_nodes[i]
        rows.append(_assemble(runtime, i, routed.get(rkey), sims.get(skey)))
    stages = {
        f"stages_{key}": graph.counters[key]
        for key in ("planned", "unique", "executed", "cache_hit")
    }
    DAG_COUNTERS.add(runs=1, **stages)
    meta.update({f"dag_{key}": n for key, n in stages.items()})
    meta["shared_stage_ratio"] = round(graph.shared_ratio, 4)
    return rows, meta


def _wave(
    graph: StageGraph,
    substrate: "Substrate",
    kind: str,
    nodes: dict[tuple, tuple],
    cache: LRU,
    cache_key: Callable[..., Any],
) -> dict[tuple, Any]:
    """The one wave step: the artifact of every node, by node key.

    Probes each node once in ``cache`` (warm nodes count as cache hits),
    runs the cold ones in one ``substrate.run(kind, ...)`` call (counted
    as executed) and puts their artifacts into ``cache`` so the next
    run starts warm.
    """
    artifacts: dict[tuple, Any] = {}
    cold: list[tuple[tuple, tuple]] = []
    for key, node in nodes.items():
        hit = cache.get(cache_key(*node))
        if hit is None:
            cold.append((key, node))
        else:
            artifacts[key] = hit
    graph.counters["cache_hit"] += len(artifacts)
    graph.counters["executed"] += len(cold)
    if cold:
        for (key, node), artifact in zip(cold, substrate.run(kind, cold)):
            artifacts[key] = cache.put(cache_key(*node), artifact)
    return artifacts


def _assemble(runtime: Any, i: int, routed: Any, sim: Any) -> tuple:
    """Build one cell row from its profiles (sampled cross-check against
    a fresh, cache-bypassing per-cell recompute under
    ``REPRO_SANITIZE=1``)."""
    row = runtime.row(i, routed, sim)
    if sanitize.enabled() and sanitize.should_spotcheck():
        sanitize.check_row_parity(row, runtime.fresh_eval(i), f"dag cell {i}")
    return row
