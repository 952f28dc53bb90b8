"""The lazy experiment pipeline: run -> fold -> route -> metrics.

One :class:`Pipeline` is an immutable chain over the columnar engines —
nothing executes at construction time.  Each stage materialises exactly
once (thread-safely), is shared by every pipeline derived from it, and
leans on the existing memoisation layers (the fold-kernel LRU and the
``RoutedProfile`` LRU), so one trace can be folded many ways and routed
on many topologies with zero recomputation::

    >>> from repro.api import run
    >>> row = run("matmul", n=64).fold(p=16).route("torus2d",
    ...           policy="valiant").metrics()          # doctest: +SKIP

Mid-chain reuse is the point: keep a reference to ``run(...)`` or a
``.fold(p)`` stage and branch as many ``.route(...)``/``.metrics()``
continuations off it as the study needs — the cache-sharing tests assert
the reused stages add LRU hits, never misses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.metrics import TraceMetrics
from repro.machine.folding import fold_trace
from repro.machine.trace import Trace
from repro.models.presets import PRESETS
from repro.networks import RoutingPolicy, by_policy, route_trace
from repro.networks import by_name as topology_by_name
from repro.networks.routing import RoutedProfile
from repro.networks.topology import Topology
from repro.sim import Arbiter, SimProfile, by_arbiter, simulate_trace

from repro.api import registry

__all__ = ["Pipeline", "MetricsRow", "run"]


class _Cell:
    """A compute-once slot (double-checked locking; shared by stages)."""

    __slots__ = ("_value", "_done", "_lock")

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._lock = threading.Lock()

    @property
    def done(self) -> bool:
        return self._done

    def get(self, compute):
        if self._done:
            return self._value
        with self._lock:
            if not self._done:
                self._value = compute()
                self._done = True
        return self._value


@dataclass(frozen=True)
class MetricsRow:
    """Flat metrics of one pipeline chain (the plan cell row type).

    Fields a chain does not measure stay ``None`` — e.g. ``H`` requires a
    fold target and a ``sigma``, ``routed_time`` a route stage.
    """

    algorithm: str
    n: int | None
    v: int
    supersteps: int
    messages: int
    p: int | None = None
    sigma: float | None = None
    H: float | None = None
    machine: str | None = None
    D: float | None = None
    topology: str | None = None
    policy: str | None = None
    arbiter: str | None = None
    routed_time: float | None = None
    routed_over_dbsp: float | None = None
    max_congestion: float | None = None
    max_dilation: int | None = None
    sim_cycles: int | None = None
    sim_over_cd: float | None = None
    extras: tuple = ()

    def as_dict(self) -> dict:
        d = {
            "algorithm": self.algorithm,
            "n": self.n,
            "v": self.v,
            "p": self.p,
            "sigma": self.sigma,
            "H": self.H,
            "machine": self.machine,
            "D": self.D,
            "topology": self.topology,
            "policy": self.policy,
            "arbiter": self.arbiter,
            "routed_time": self.routed_time,
            "routed_over_dbsp": self.routed_over_dbsp,
            "max_congestion": self.max_congestion,
            "max_dilation": self.max_dilation,
            "sim_cycles": self.sim_cycles,
            "sim_over_cd": self.sim_over_cd,
            "supersteps": self.supersteps,
            "messages": self.messages,
        }
        d.update(dict(self.extras))
        return d


class _Source:
    """Root state shared by every stage of one chain."""

    __slots__ = ("spec", "label", "n", "seed", "params", "cell", "tm_cell", "provided")

    def __init__(self, spec, label, n, seed, params, provided=None):
        self.spec = spec
        self.label = label
        self.n = n
        self.seed = seed
        self.params = params
        self.provided = provided  # pre-supplied result/trace/metrics, if any
        self.cell = _Cell()
        self.tm_cell = _Cell()

    def materialise(self):
        """(result | None, trace) — runs the algorithm at most once."""
        def compute():
            if self.provided is not None:
                obj = self.provided
                if isinstance(obj, TraceMetrics):
                    return None, obj.trace
                if isinstance(obj, Trace):
                    return None, obj
                return obj, obj.trace  # an AlgorithmResult-like object
            result = self.spec.run(self.n, seed=self.seed, **dict(self.params))
            return result, result.trace

        return self.cell.get(compute)

    def trace_metrics(self) -> TraceMetrics:
        def compute():
            if isinstance(self.provided, TraceMetrics):
                return self.provided
            return TraceMetrics(self.materialise()[1])

        return self.tm_cell.get(compute)


class Pipeline:
    """One stage of a lazy experiment chain (see module docstring).

    Stages are created by :func:`run` / :meth:`from_trace` (roots) and by
    :meth:`fold` / :meth:`route` (continuations); nothing runs until a
    materialising accessor (``result``, ``trace``, ``profile``,
    ``metrics`` ...) is touched, and each stage computes at most once.
    """

    def __init__(self, kind: str, parent: "Pipeline | None", source: _Source, **args):
        self._kind = kind
        self._parent = parent
        self._source = source
        self._args = args
        self._cell = _Cell()

    # ------------------------------------------------------------------
    # Roots
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result, *, label: str | None = None) -> "Pipeline":
        """Wrap an existing :class:`AlgorithmResult` as a root stage."""
        label = label or type(result).__name__
        src = _Source(None, label, getattr(result, "n", None), 0, (), provided=result)
        return cls("run", None, src)

    @classmethod
    def from_trace(
        cls, trace: Trace | TraceMetrics, *, label: str = "trace"
    ) -> "Pipeline":
        """Wrap a raw trace (or ready metrics) as a root stage."""
        src = _Source(None, label, None, 0, (), provided=trace)
        return cls("run", None, src)

    # ------------------------------------------------------------------
    # Stage constructors (lazy)
    # ------------------------------------------------------------------
    def fold(self, p: int) -> "Pipeline":
        """Fold the trace onto ``M(p)`` (memoised through the fold LRU)."""
        return Pipeline("fold", self, self._source, p=int(p))

    def route(
        self,
        topology: str | Topology,
        policy: str | RoutingPolicy = "dimension-order",
        *,
        p: int | None = None,
        seed: int = 0,
    ) -> "Pipeline":
        """Route the trace on a concrete network (memoised RoutedProfile).

        ``p`` defaults to the nearest ``fold`` ancestor's target (the
        specification size when the chain never folded); pass a
        :class:`Topology` instance to fix it explicitly.
        """
        return Pipeline(
            "route", self, self._source,
            topology=topology, policy=policy, p=p, seed=int(seed),
        )

    def simulate(
        self,
        arbiter: str | Arbiter = "fifo",
        *,
        seed: int = 0,
        flits_per_message: int = 1,
    ) -> "Pipeline":
        """Cycle-accurately execute the chain's routed trace (lazy).

        Continues the nearest ``.route(...)`` stage: the same folded
        message batches the analytic profile prices are walked hop by
        hop through :func:`repro.sim.simulate_trace` under ``arbiter``.
        ``flits_per_message`` serialises each message into that many
        flits (the analytic price becomes ``F*C + D``).  Access the
        measured :class:`~repro.sim.SimProfile` via :attr:`sim_profile`;
        ``metrics()`` rows gain ``sim_cycles`` and ``sim_over_cd`` (the
        empirical LMR constant).
        """
        if int(flits_per_message) < 1:
            raise ValueError("flits_per_message must be >= 1")
        return Pipeline(
            "sim", self, self._source, arbiter=arbiter, seed=int(seed),
            flits=int(flits_per_message),
        )

    # ------------------------------------------------------------------
    # Materialising accessors
    # ------------------------------------------------------------------
    @property
    def result(self):
        """The algorithm's :class:`AlgorithmResult` (runs it if needed)."""
        result, _ = self._source.materialise()
        if result is None:
            raise AttributeError(
                f"pipeline over a bare trace ({self._source.label!r}) has no result"
            )
        return result

    @property
    def trace(self) -> Trace:
        """The trace at this stage (folded for ``fold`` stages)."""
        if self._kind == "fold":
            return self._cell.get(
                lambda: fold_trace(self._source.materialise()[1], self._args["p"])
            )
        if self._kind in ("route", "sim"):
            return self._parent.trace
        return self._source.materialise()[1]

    @property
    def trace_metrics(self) -> TraceMetrics:
        """Shared :class:`TraceMetrics` over the specification trace."""
        return self._source.trace_metrics()

    @property
    def profile(self) -> RoutedProfile:
        """The :class:`RoutedProfile` of the nearest route stage."""
        node = self._find("route")
        if node is None:
            raise AttributeError("no .route(...) stage in this pipeline")
        return node._cell.get(node._materialise_route)

    @property
    def sim_profile(self) -> SimProfile:
        """The measured :class:`SimProfile` of the nearest sim stage."""
        node = self._find("sim")
        if node is None:
            raise AttributeError("no .simulate(...) stage in this pipeline")
        return node._cell.get(node._materialise_sim)

    def _find(self, kind: str) -> "Pipeline | None":
        node = self
        while node is not None and node._kind != kind:
            node = node._parent
        return node

    def _chain_p(self) -> int | None:
        node = self
        while node is not None:
            if node._kind == "fold":
                return node._args["p"]
            if node._kind == "route" and node._args["p"] is not None:
                return node._args["p"]
            node = node._parent
        return None

    def _resolve_topology(self) -> Topology:
        topology = self._args["topology"]
        if isinstance(topology, Topology):
            return topology
        p = self._args["p"]
        if p is None:
            parent_p = self._parent._chain_p() if self._parent else None
            p = parent_p if parent_p is not None else self.trace.v
        return topology_by_name(topology, int(p))

    def _resolve_policy(self) -> RoutingPolicy:
        policy = self._args["policy"]
        if isinstance(policy, RoutingPolicy):
            return policy
        return by_policy(policy, self._args["seed"])

    def _materialise_route(self) -> RoutedProfile:
        # The *specification* trace goes to route_trace (it folds through
        # the same memoised kernels a .fold(p) stage uses), keeping the
        # RoutedProfile LRU keyed by the root trace across all chains.
        return route_trace(
            self._source.materialise()[1],
            self._resolve_topology(),
            self._resolve_policy(),
        )

    def _materialise_sim(self) -> SimProfile:
        route = self._find("route")
        if route is None:
            raise AttributeError(".simulate() needs a .route(...) stage upstream")
        arbiter = self._args["arbiter"]
        if not isinstance(arbiter, Arbiter):
            arbiter = by_arbiter(arbiter, self._args["seed"])
        return simulate_trace(
            self._source.materialise()[1],
            route._resolve_topology(),
            route._resolve_policy(),
            arbiter,
            flits_per_message=self._args["flits"],
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def H(self, sigma: float = 0.0, p: int | None = None) -> float:
        """Eq. 1 communication complexity at the chain's fold target."""
        p = p if p is not None else self._chain_p()
        tm = self.trace_metrics
        return tm.H(int(p) if p is not None else tm.v, sigma)

    def D(self, machine, p: int | None = None) -> float:
        """Eq. 2 on a D-BSP instance or a ``models.PRESETS`` name."""
        if isinstance(machine, str):
            p = p if p is not None else self._chain_p()
            if p is None:
                p = self.trace_metrics.v
            machine = PRESETS[machine](int(p))
        return self.trace_metrics.D_machine(machine)

    def metrics(self, sigma: float | None = None) -> MetricsRow:
        """Materialise the chain and collect its flat metrics row."""
        source = self._source
        result, trace = source.materialise()
        tm = source.trace_metrics()
        node = self._find("route")
        profile = node._cell.get(node._materialise_route) if node is not None else None
        sim_node = self._find("sim")
        sim = (
            sim_node._cell.get(sim_node._materialise_sim)
            if sim_node is not None
            else None
        )
        p = self._chain_p()
        if p is None and profile is not None:
            p = profile.p
        extras: Mapping | tuple = ()
        if result is not None and source.spec is not None:
            desc = source.spec.describe(result)
            extras = tuple(
                (k, v)
                for k, v in desc.items()
                if k not in ("algorithm", "v", "supersteps", "messages")
            )
        row = dict(
            algorithm=source.label,
            n=source.n,
            v=tm.v,
            supersteps=trace.num_supersteps,
            messages=trace.total_messages,
            p=p,
            sigma=sigma,
            H=tm.H(p, sigma) if (p is not None and sigma is not None) else None,
            extras=tuple(extras),
        )
        if profile is not None:
            row.update(
                topology=profile.topology,
                policy=profile.policy,
                routed_time=profile.total_time,
                max_congestion=profile.max_congestion,
                max_dilation=profile.max_dilation,
            )
        if sim is not None:
            row.update(
                arbiter=sim.arbiter,
                sim_cycles=sim.total_cycles,
                sim_over_cd=sim.overall_ratio,
            )
        return MetricsRow(**row)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stages = []
        node = self
        while node is not None:
            if node._kind == "run":
                stages.append(f"run({node._source.label!r})")
            elif node._kind == "fold":
                stages.append(f"fold(p={node._args['p']})")
            elif node._kind == "sim":
                arb = node._args["arbiter"]
                name = arb.name if isinstance(arb, Arbiter) else arb
                stages.append(f"simulate({name!r})")
            else:
                topo = node._args["topology"]
                name = topo.name if isinstance(topo, Topology) else topo
                stages.append(f"route({name!r})")
            node = node._parent
        state = "materialised" if self._source.cell.done else "lazy"
        return f"<Pipeline {' -> '.join(reversed(stages))} [{state}]>"


def run(
    algorithm: str, n: int | None = None, *, seed: int = 0, **params: Any
) -> Pipeline:
    """Start a lazy pipeline for a registered algorithm.

    ``run("matmul", n=64)`` validates eagerly (bad sizes fail fast) but
    executes nothing until a materialising accessor is touched.  Extra
    keyword arguments flow to the spec's emitter (e.g. ``wise=False``,
    ``kappa=4``, or a baseline's ``p``).
    """
    spec = registry.by_name(algorithm)
    if n is None:
        if not spec.default_sizes:
            raise ValueError(f"{algorithm}: a problem size n is required")
        n = spec.default_sizes[0]
    spec.validate(n, **params)
    source = _Source(spec, spec.name, int(n), int(seed), tuple(sorted(params.items())))
    return Pipeline("run", None, source)
