"""Declarative experiment plans: grids of cells run as one stage graph.

An :class:`ExperimentPlan` is a list of :class:`PlanCell` measurements —
(algorithm, size, p, sigma, topology, policy, machine) — expanded from a
grid or loaded from JSON, executed as one deduplicated stage graph, and
collected into a :class:`~repro.api.frame.ResultFrame`.  Each distinct
(algorithm, size, seed) source is materialised exactly once, and each
distinct fold, route and simulation runs once, so a whole topology x
policy x p grid prices one trace with zero re-execution::

    plan = ExperimentPlan.grid(
        algorithms=["fft"], ns=[1024], ps=[4, 16],
        topologies=["torus2d", "hypercube"],
        policies=["dimension-order", "valiant"],
    )
    frame = plan.run(executor="shm", store="results.db")

Where the graph's waves run is pluggable: ``executor`` names a
substrate in the :mod:`repro.exec` registry (``serial``, ``shm``, or
any :class:`~repro.exec.Substrate` instance — the ``REPRO_EXECUTOR``
environment variable overrides the default) and
``store`` consults the persistent sqlite result store first, so repeated
sweeps across processes and CI runs hit warm rows instead of
re-simulating.  Substrates return bit-identical frames: every cell
computes the same deterministic quantities, the substrate only changes
where; what actually ran is recorded in the frame's ``meta``
(``executor_effective``, downgrade reasons, store hit counts, stage
dedup counters).
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.metrics import TraceMetrics
from repro.machine.trace import Trace
from repro.models.presets import PRESETS
from repro.networks import TOPOLOGIES, RoutingPolicy, by_policy, fit, route_trace
from repro.networks import by_name as topology_by_name
from repro.sim import by_arbiter, simulate_trace
from repro.util.intmath import is_power_of_two

from repro.api import registry
from repro.api.frame import RESULT_COLUMNS, ResultFrame
from repro.api.pipeline import Pipeline

__all__ = ["PlanCell", "ExperimentPlan"]


@dataclass(frozen=True)
class PlanCell:
    """One measurement of one algorithm at one operating point.

    ``algorithm`` names a registry spec, or — prefixed with ``@`` — a
    plan-provided source (an existing trace/result, see
    :meth:`ExperimentPlan.from_trace`).  Optional fields select what the
    cell measures: ``sigma`` an H(n, p, sigma) evaluation, ``machine`` a
    D-BSP preset evaluation, ``topology``/``policy`` a routed profile
    (``relative_to_dbsp`` divides by the fitted D-BSP prediction).  A
    topology cell with ``mode="sim"`` additionally runs the
    cycle-accurate simulator (:mod:`repro.sim`) under ``arbiter`` —
    serialising each message into ``flits_per_message`` flits — and
    reports measured cycles next to the analytic price, so one frame
    sweeps analytic-vs-measured.
    """

    algorithm: str
    n: int | None = None
    p: int | None = None
    sigma: float | None = None
    topology: str | None = None
    policy: str | RoutingPolicy | None = None
    policy_seed: int = 0
    machine: str | None = None
    relative_to_dbsp: bool = False
    mode: str = "analytic"
    arbiter: str = "fifo"
    arbiter_seed: int = 0
    flits_per_message: int = 1
    seed: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    def as_dict(self) -> dict:
        """JSON-ready dict (drops defaults; rejects non-declarative cells)."""
        if isinstance(self.policy, RoutingPolicy):
            raise TypeError(
                "cannot serialise a cell holding a RoutingPolicy instance; "
                "use a policy name + policy_seed"
            )
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "params":
                if value:
                    out["params"] = dict(value)
                continue
            if value != f.default:
                out[f.name] = value
        out["algorithm"] = self.algorithm
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PlanCell":
        d = dict(d)
        params = d.pop("params", None)
        if params:
            d["params"] = tuple(sorted(params.items()))
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown PlanCell fields: {sorted(unknown)}")
        return cls(**d)


class _PlanRuntime:
    """Prepared sources + the cell row assembler of one plan run."""

    def __init__(self, plan: "ExperimentPlan", *, check: bool = False):
        self.plan = plan
        self.cells = plan.cells
        self.check = check
        self._tms: dict[tuple, TraceMetrics] = {}
        # Plan-level state shared across cells: one Topology instance per
        # (name, p) — its edge_capacities cache then serves every cell —
        # and one fitted D-BSP denominator per (source, topology, p).
        self._topos: dict[tuple, Any] = {}
        self._denoms: dict[tuple, float] = {}
        # check=True: per-source correctness verdicts from the specs'
        # ``adapt`` oracles, computed once at prepare time.
        self._checks: dict[tuple, bool | None] = {}

    # -- sources -------------------------------------------------------
    def _source_key(self, cell: PlanCell) -> tuple:
        if cell.algorithm.startswith("@"):
            return ("@", cell.algorithm[1:])
        spec = registry.by_name(cell.algorithm)
        p = cell.p if spec.needs_p else None
        return (cell.algorithm, cell.n, cell.seed, cell.params, p)

    def topology(self, name: str, p: int):
        """The shared :class:`Topology` instance for ``(name, p)``.

        Built lazily and memoised per runtime, so its ``edge_capacities``
        cache serves every cell.
        """
        key = (name, p)
        topo = self._topos.get(key)
        if topo is None:
            topo = self._topos[key] = topology_by_name(name, p)
        return topo

    def route_args(self, cell: PlanCell) -> tuple:
        """``(trace, topology, policy)`` of a topology cell's route."""
        tm = self._tms[self._source_key(cell)]
        p = cell.p if cell.p is not None else tm.v
        policy = cell.policy if cell.policy is not None else "dimension-order"
        if not isinstance(policy, RoutingPolicy):
            policy = by_policy(policy, cell.policy_seed)
        return tm.trace, self.topology(cell.topology, p), policy

    def prepare(self, indices: Sequence[int] | None = None) -> None:
        """Materialise every distinct source the cells need, serially.

        Runs before any worker starts: the traces (and their
        ``TraceMetrics``) are plan-level shared state — in-line waves see
        the same objects, the ``shm`` pool maps their columns from shared
        memory.
        ``indices`` restricts preparation to those cells (a run with a
        result store prepares only its misses); default is all.
        """
        cells = (
            self.cells
            if indices is None
            else [self.cells[i] for i in indices]
        )
        for cell in cells:
            key = self._source_key(cell)
            if key in self._tms:
                continue
            if key[0] == "@":
                name = key[1]
                if name not in self.plan.sources:
                    raise KeyError(
                        f"plan has no provided source named {name!r}; "
                        f"available: {sorted(self.plan.sources)}"
                    )
                pipe = _as_pipeline(self.plan.sources[name], label=f"@{name}")
            else:
                spec = registry.by_name(cell.algorithm)
                params = dict(cell.params)
                if spec.needs_p:
                    params["p"] = cell.p
                pipe = Pipeline("run", None, _plan_source(spec, cell, params))
                result = pipe.result  # materialise before workers start
                if self.check:
                    # The spec's adapt oracle (numpy reference check)
                    # turns the grid into a correctness sweep; specs
                    # without one report None, never a false pass.
                    verdict = (spec.adapt or (lambda r: {}))(result)
                    self._checks[key] = verdict.get("correct")
            self._tms[key] = pipe.trace_metrics
        for cell in cells:
            if cell.topology is None:
                continue
            key = self._source_key(cell)
            tm = self._tms[key]
            p = cell.p if cell.p is not None else tm.v
            topo = self.topology(cell.topology, p)
            dkey = (key, cell.topology, p)
            if cell.relative_to_dbsp and dkey not in self._denoms:
                self._denoms[dkey] = tm.D_machine(fit(topo))

    # -- cells ---------------------------------------------------------
    def eval_cell(self, i: int) -> tuple:
        """Row of cell ``i`` on its own, its profiles looked up through
        ``route_trace``/``simulate_trace``: the per-cell oracle."""
        cell = self.cells[i]
        routed = sim = None
        if cell.topology is not None:
            trace, topo, policy = self.route_args(cell)
            routed = route_trace(trace, topo, policy)
            if cell.mode == "sim":
                sim = simulate_trace(
                    trace, topo, policy, cell.arbiter,
                    seed=cell.arbiter_seed,
                    flits_per_message=cell.flits_per_message,
                )
        return self.row(i, routed, sim)

    def row(self, i: int, routed: Any, sim: Any) -> tuple:
        """Row tuple (RESULT_COLUMNS order) for cell ``i`` from its route
        and sim profiles — pure given the prepared sources."""
        cell = self.cells[i]
        key = self._source_key(cell)
        tm = self._tms[key]
        trace = tm.trace
        p = cell.p if cell.p is not None else tm.v
        row: dict[str, Any] = {
            "algorithm": cell.algorithm,
            "n": cell.n,
            "v": tm.v,
            "p": cell.p,
            "sigma": cell.sigma,
            "supersteps": trace.num_supersteps,
            "messages": trace.total_messages,
        }
        if cell.sigma is not None:
            row["H"] = tm.H(p, cell.sigma)
        if cell.machine is not None:
            build = (self.plan.machines or PRESETS)[cell.machine]
            row.update(machine=cell.machine, D=tm.D_machine(build(p)))
        if cell.topology is not None:
            row.update(
                topology=cell.topology,
                policy=routed.policy,
                mode=cell.mode,
                routed_time=routed.total_time,
                max_congestion=routed.max_congestion,
                max_dilation=routed.max_dilation,
            )
            if cell.mode == "sim":
                row.update(
                    arbiter=sim.arbiter,
                    sim_cycles=sim.total_cycles,
                    sim_over_cd=sim.overall_ratio,
                )
            if cell.relative_to_dbsp:
                denom = self._denoms[(key, cell.topology, p)]
                ratio = routed.total_time / denom if denom else float("inf")
                row["routed_over_dbsp"] = ratio
        if self.check:
            row["correct"] = self._checks.get(key)
        return tuple(row.get(c) for c in RESULT_COLUMNS)

    def fresh_eval(self, i: int) -> tuple:
        """Re-evaluate cell ``i`` from a fresh clone of its source trace.

        The clone gets a new cache token, so folding, routing and (for
        sim cells) the cycle loop all recompute from scratch instead of
        hitting the artifacts a run already produced — an independent
        reference row for the sanitizer's sampled row-parity check.  It
        is built without the source's ``pattern`` and computes its own
        from content, so the check also covers the emitter's pattern.
        """
        key = self._source_key(self.cells[i])
        trace = self._tms[key].trace
        clone = Trace(trace.v, trace.labels, trace.offsets, trace.src, trace.dst)
        fresh = _PlanRuntime(self.plan, check=self.check)
        fresh._tms = {**self._tms, key: TraceMetrics(clone)}
        fresh._denoms = dict(self._denoms)
        fresh._checks = dict(self._checks)
        return fresh.eval_cell(i)


def _plan_source(spec, cell: PlanCell, params: dict):
    from repro.api.pipeline import _Source

    return _Source(spec, spec.name, cell.n, cell.seed, tuple(sorted(params.items())))


_BUILTIN_SCALARS = frozenset({str, int, float, bool, type(None)})


def _typed(x: Any) -> Any:
    """``x`` with every leaf paired with its type, so ``1``, ``1.0`` and
    ``True`` stay apart as set members (a validator may accept one and
    reject another); raises ``TypeError`` for anything but builtin
    scalars and tuples of them."""
    if type(x) is tuple:
        return tuple(map(_typed, x))
    if type(x) in _BUILTIN_SCALARS:
        return type(x), x
    raise TypeError(f"no typed identity: {type(x).__name__}")


def _as_pipeline(obj, *, label: str) -> Pipeline:
    if isinstance(obj, Pipeline):
        return obj
    if isinstance(obj, (Trace, TraceMetrics)):
        return Pipeline.from_trace(obj, label=label)
    return Pipeline.from_result(obj, label=label)


class ExperimentPlan:
    """A named list of cells plus how to source and execute them.

    Parameters
    ----------
    cells:
        The measurements, run in order (the frame preserves it).
    name:
        Frame/report title.
    sources:
        Plan-provided traces/results for ``@name`` cells.
    machines:
        Optional mapping for ``machine`` cells (defaults to
        ``models.PRESETS``).
    """

    def __init__(
        self,
        cells: Iterable[PlanCell],
        *,
        name: str = "plan",
        sources: Mapping[str, Any] | None = None,
        machines: Mapping[str, Callable[[int], Any]] | None = None,
    ):
        self.cells: tuple[PlanCell, ...] = tuple(cells)
        self.name = name
        self.sources = dict(sources or {})
        self.machines = dict(machines) if machines is not None else None

    def __len__(self) -> int:
        return len(self.cells)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        algorithms: Sequence[str],
        ns: Sequence[int | None] = (None,),
        ps: Sequence[int | None] = (None,),
        sigmas: Sequence[float] = (),
        topologies: Sequence[str] = (),
        policies: Sequence[str | RoutingPolicy] = ("dimension-order",),
        machines: Sequence[str] = (),
        modes: Sequence[str] = ("analytic",),
        *,
        relative_to_dbsp: bool = False,
        policy_seed: int = 0,
        arbiter: str = "fifo",
        arbiter_seed: int = 0,
        flits_per_message: int = 1,
        seed: int = 0,
        params: Mapping[str, Any] | None = None,
        name: str = "grid",
        sources: Mapping[str, Any] | None = None,
        machine_builders: Mapping[str, Callable[[int], Any]] | None = None,
    ) -> "ExperimentPlan":
        """Expand a full product grid into cells (p-major, like the sweeps).

        For every (algorithm, n, p): one H cell per ``sigma``, one routed
        cell per topology x policy x mode (``modes=("analytic", "sim")``
        prices and simulates each network cell side by side), one D cell
        per machine preset; a bare structural cell when nothing else is
        requested.
        """
        frozen = tuple(sorted((params or {}).items()))
        cells: list[PlanCell] = []
        for alg in algorithms:
            for n in ns:
                for p in ps:
                    base = PlanCell(
                        algorithm=alg, n=n, p=p, seed=seed, params=frozen
                    )
                    emitted = False
                    for sigma in sigmas:
                        cells.append(replace(base, sigma=sigma))
                        emitted = True
                    for machine in machines:
                        cells.append(replace(base, machine=machine))
                        emitted = True
                    for topology in topologies:
                        for policy in policies:
                            for mode in modes:
                                cells.append(
                                    replace(
                                        base,
                                        topology=topology,
                                        policy=policy,
                                        policy_seed=policy_seed,
                                        relative_to_dbsp=relative_to_dbsp,
                                        mode=mode,
                                        arbiter=arbiter,
                                        arbiter_seed=arbiter_seed,
                                        flits_per_message=flits_per_message,
                                    )
                                )
                                emitted = True
                    if not emitted:
                        cells.append(base)
        return cls(
            cells, name=name, sources=sources, machines=machine_builders
        )

    @classmethod
    def from_trace(
        cls, trace: Trace | TraceMetrics, *, label: str = "trace", **grid_kwargs
    ) -> "ExperimentPlan":
        """Grid plan over one existing trace (no registry involved)."""
        grid_kwargs.setdefault("name", f"plan[{label}]")
        return cls.grid(
            algorithms=[f"@{label}"], sources={label: trace}, **grid_kwargs
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self, path: str | Path | None = None) -> str:
        """Serialise the plan (cells only — sources are not declarative)."""
        if self.sources:
            raise TypeError("cannot serialise a plan with in-memory sources")
        text = json.dumps(
            {"name": self.name, "cells": [c.as_dict() for c in self.cells]},
            indent=2,
        )
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "ExperimentPlan":
        """Load a plan from a JSON string, file path, or ``grid`` spec.

        Accepts either ``{"cells": [...]}`` (explicit) or
        ``{"grid": {"algorithms": [...], "ns": [...], ...}}`` (expanded
        via :meth:`grid`), plus an optional ``"name"``.
        """
        text = source
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text()
        data = json.loads(text)
        name = data.get("name", "plan")
        if "grid" in data:
            spec = dict(data["grid"])
            return cls.grid(name=name, **spec)
        cells = [PlanCell.from_dict(d) for d in data.get("cells", [])]
        return cls(cells, name=name)

    def validate(self) -> None:
        """Validate every cell eagerly, before anything is emitted: sizes,
        machine sizes ``p`` and params against the registry, and every
        topology, policy (with its seed), machine and arbiter (with its
        seed) by name.  ``spec.validate`` runs once per distinct
        (algorithm, n, p, params), or per cell for params that have no
        typed identity (arrays, lists, numpy scalars)."""
        machines = self.machines or PRESETS
        policies: set = set()
        arbiters: set = set()
        sources: set = set()
        for i, cell in enumerate(self.cells):
            if cell.p is not None and not is_power_of_two(cell.p):
                raise ValueError(
                    f"cell {i} ({cell.algorithm} n={cell.n}): p must be a "
                    f"positive power of two, got {cell.p!r}"
                )
            if cell.mode not in ("analytic", "sim"):
                raise ValueError(
                    f"unknown cell mode {cell.mode!r}; choose analytic or sim"
                )
            if cell.mode == "sim":
                if cell.topology is None:
                    raise ValueError(
                        "mode='sim' needs a topology: the simulator measures "
                        "a routed cell, not a structural one"
                    )
                if (cell.arbiter, cell.arbiter_seed) not in arbiters:
                    by_arbiter(cell.arbiter, cell.arbiter_seed)
                    arbiters.add((cell.arbiter, cell.arbiter_seed))
            if cell.topology is not None:
                if cell.topology not in TOPOLOGIES:
                    raise KeyError(
                        f"unknown topology {cell.topology!r}; "
                        f"choose from {sorted(TOPOLOGIES)}"
                    )
                policy = cell.policy if cell.policy is not None else "dimension-order"
                pkey = (policy, cell.policy_seed)
                if not isinstance(policy, RoutingPolicy) and pkey not in policies:
                    by_policy(*pkey)
                    policies.add(pkey)
            if cell.machine is not None and cell.machine not in machines:
                raise KeyError(
                    f"unknown machine preset {cell.machine!r}; "
                    f"choose from {sorted(machines)}"
                )
            if cell.flits_per_message < 1:
                raise ValueError(
                    f"flits_per_message must be >= 1, got {cell.flits_per_message}"
                )
            if cell.algorithm.startswith("@"):
                if cell.algorithm[1:] not in self.sources:
                    raise KeyError(f"no source for {cell.algorithm!r}")
                continue
            try:
                source = (
                    cell.algorithm, type(cell.n), cell.n, type(cell.p), cell.p,
                    _typed(cell.params),
                )
                if source in sources:
                    continue
            except TypeError:  # unhashable or untyped params: check this cell
                source = None
            spec = registry.by_name(cell.algorithm)
            params = dict(cell.params)
            if spec.needs_p:
                params["p"] = cell.p
            if cell.n is None:
                raise ValueError(f"{cell.algorithm}: cell needs a problem size n")
            spec.validate(cell.n, **params)
            if source is not None:
                sources.add(source)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        executor: "str | Any | None" = None,
        check: bool = False,
        store: "str | Path | Any | None" = None,
        scheduler: str = "dag",
    ) -> ResultFrame:
        """Execute every cell and collect the frame (always cell order).

        Every cell is validated (:meth:`validate`) before any source is
        emitted.  The run then compiles the plan's deduplicated stage
        graph (:mod:`repro.exec.dag`): each unique emit/fold/route/sim
        stage executes once, sibling sim stages fuse into batched cycle
        loops, every row is built from the profiles the run computed or
        found warm in the LRUs, and the frame's metadata records the
        dedup counters.

        ``executor`` names the substrate the graph's waves run on, from
        the :mod:`repro.exec` registry — ``"serial"`` (in-line) or
        ``"shm"`` (a persistent worker pool over zero-copy
        shared-memory sources) — or is a :class:`~repro.exec.Substrate`
        instance such as ``ShmSubstrate(workers=4)``, which sets the
        pool size.  Default: the ``REPRO_EXECUTOR`` environment
        variable, else ``"serial"``.
        All substrates produce bit-identical rows; the frame's ``meta``
        records what actually ran (``executor_effective`` — substrates
        degrade gracefully and say so — plus any store statistics).

        ``store`` — a path or :class:`~repro.exec.ResultStore` — is a
        persistent cell-hash result cache consulted before the graph is
        compiled: warm cells skip emission, folding, routing and
        simulation entirely, and the misses' rows are stored afterwards.
        A store opened from a path is closed when the run ends; a
        caller's :class:`~repro.exec.ResultStore` stays open.  If the
        store refuses the write (another connection holds a write lock
        past sqlite's busy timeout), the computed frame is still
        returned and its ``meta`` records ``store_write_skipped=<rows>``.

        ``check=True`` additionally runs every registry source through
        its spec's ``adapt`` numpy oracle and reports the verdict in the
        frame's ``correct`` column (``None`` for sources without an
        oracle) — the grid doubles as a correctness sweep.

        ``scheduler`` accepts only ``"dag"``, the one execution path.
        """
        from repro.exec import ResultStore, Substrate, by_executor, run_graph
        from repro.exec.store import store_hits

        self.validate()
        if scheduler != "dag":
            raise ValueError(
                f"unknown scheduler {scheduler!r}; the stage graph ('dag') "
                "is the only execution path"
            )
        if executor is None:
            executor = os.environ.get("REPRO_EXECUTOR") or "serial"
        substrate = (
            executor if isinstance(executor, Substrate) else by_executor(executor)
        )
        info: dict[str, Any] = {"executor": substrate.name}
        runtime = _PlanRuntime(self, check=check)
        rows: dict[int, tuple] = {}
        owned = None  # a store this run opened from a path, closed below
        try:
            if store is not None:
                if not isinstance(store, ResultStore):
                    store = owned = ResultStore(store)
                keys, rows = store_hits(store, runtime)
            misses = [i for i in range(len(self.cells)) if i not in rows]
            if misses:
                computed, meta = run_graph(runtime, substrate, misses)
                info.update(meta)
                rows.update(zip(misses, computed))
                if store is not None:
                    fresh = {keys[i]: rows[i] for i in misses if i in keys}
                    try:
                        store.put_many(fresh)
                    except sqlite3.OperationalError:  # e.g. "database is locked"
                        info["store_write_skipped"] = len(fresh)
        finally:
            if owned is not None:
                owned.close()
        info.setdefault("executor_effective", substrate.name)
        if store is not None:
            info.update(
                store=str(store.path),
                store_hits=len(self.cells) - len(misses),
                store_misses=len(misses),
            )
        return ResultFrame(
            RESULT_COLUMNS,
            tuple(rows[i] for i in range(len(self.cells))),
            name=self.name,
            meta=tuple(info.items()),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExperimentPlan({self.name!r}, cells={len(self.cells)})"
