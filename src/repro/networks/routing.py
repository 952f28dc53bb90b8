"""Timing h-relations on explicit networks: congestion + dilation.

For a superstep's message set routed along fixed paths, any schedule
needs at least ``max(congestion, dilation)`` steps and O(congestion +
dilation) suffices (store-and-forward with random ranks — Leighton,
Maggs & Rao).  We charge::

    time(superstep) = max_e load(e)/capacity(e)  +  max path length  +  1

which is the standard proxy the D-BSP parameters compress into
``h * g_i + ell_i``: congestion tracks ``h * g_i`` (bandwidth), dilation
tracks ``ell_i`` (latency), the +1 the barrier.  Multi-phase policies
(:class:`~repro.networks.policy.ValiantPolicy`) sum congestion and
dilation over their phases and still pay one barrier.

Whole traces are routed by :func:`route_trace`: one pass over the folded
trace's columnar superstep ranges (no per-superstep objects).  The policy's
phase legs come from :func:`fold_legs`, drawn once per (folded trace,
p, policy) and memoised beside the fold on the trace itself, so every
topology and every sim cell of a sweep reuses one draw.  A policy whose
legs depend on a superstep's endpoints alone
(:attr:`~repro.networks.policy.RoutingPolicy.legs_from_content`, as
dimension-order routing) is routed on the folded trace's representative
supersteps only (:attr:`~repro.machine.trace.Trace.pattern`), and their
congestion and dilation are gathered to every superstep.  Each leg goes
through the topology's fused ``route_loads_multi`` kernel in superstep
blocks of at most ``2**21`` (superstep, edge) cells and ``2**15``
messages, and the resulting :class:`RoutedProfile` is memoised exactly
like the fold kernels — keyed by (trace identity, topology, policy),
since network sweeps route the same trace on many machines.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.machine.folding import _distinct, _frozen, _trace_cached, fold_trace
from repro.machine.trace import Trace
from repro.networks.policy import DimensionOrderPolicy, RoutingPolicy
from repro.networks.topology import Topology
from repro.util.caches import LRU

__all__ = [
    "RoutedProfile",
    "route_trace",
    "compute_route",
    "fold_legs",
    "route_key",
]

_DIRECT = DimensionOrderPolicy()

ROUTE_CACHE = LRU("route", 256)

#: Ceilings on one kernel call: ``supersteps * num_edges`` cells and
#: messages.  Longer traces are routed in superstep blocks, so the dense
#: (superstep, edge) load grid stays at most 16 MB however long the
#: trace, and the kernels' per-message temporaries (256 KB each) come
#: back from the allocator warm instead of being paged in fresh: on a
#: 2-CPU x86 host, sort n=4096 folded to p=64 (201k messages) routes
#: 2-3x faster on the mesh and torus in 32k-message blocks than in one.
#: A block always holds at least one superstep.  Smaller cell ceilings
#: (2**18-2**20) only split long sparse traces at large p differently;
#: on one such trace (2,500 supersteps at p=1024) they were faster in a
#: process that had already freed large arrays and slower in a fresh one,
#: so the ceiling stays at 2**21.
_BLOCK_CELLS = 1 << 21
_BLOCK_MESSAGES = 1 << 15


def route_key(
    trace: Trace, topo: Topology, policy: RoutingPolicy | None = None
) -> tuple:
    """``ROUTE_CACHE`` key of a routed profile."""
    return (trace.cache_token, topo.name, topo.p, (policy or _DIRECT).cache_key())


@dataclass(frozen=True)
class RoutedProfile:
    """Columnar routing record of one folded trace on one topology.

    Parallel per-superstep arrays: ``congestion[s]`` is the bottleneck
    ``load/capacity`` (summed over policy phases), ``dilation[s]`` the
    longest path, ``time[s] = congestion[s] + dilation[s] + 1`` (the +1
    is the barrier — an empty superstep still costs exactly 1).
    """

    topology: str
    policy: str
    p: int
    labels: np.ndarray
    congestion: np.ndarray
    dilation: np.ndarray
    time: np.ndarray

    @property
    def num_supersteps(self) -> int:
        return int(self.labels.shape[0])

    @property
    def total_time(self) -> float:
        return float(self.time.sum())

    @property
    def max_congestion(self) -> float:
        return float(self.congestion.max(initial=0.0))

    @property
    def max_dilation(self) -> int:
        return int(self.dilation.max(initial=0))


Legs = tuple[tuple[np.ndarray, np.ndarray], ...]


def fold_legs(
    trace: Trace, topo: Topology, policy: RoutingPolicy
) -> tuple[Trace, Legs]:
    """The fold of ``trace`` onto ``topo.p`` and the policy's phase legs
    over it.

    Legs depend only on the policy, ``topo.p`` and the folded trace
    (the M(p) clusters are processor-id ranges whatever the network), so
    one draw serves every topology and every sim cell of a (trace, p,
    policy).  They are memoised in the trace's own fold LRU under
    ``("legs", p, policy.cache_key())`` and released with the trace;
    the arrays are read-only.
    """
    folded = fold_trace(trace, topo.p)

    def compute() -> Legs:
        return _frozen(tuple(
            tuple(leg)
            for leg in policy.phase_legs(
                topo, folded.labels, folded.offsets, folded.src, folded.dst
            )
        ))

    key = ("legs", topo.p, policy.cache_key())
    return folded, _trace_cached(trace, key, compute)


def _route_legs(
    topo: Topology,
    legs: Iterable[tuple[np.ndarray, np.ndarray]],
    seg: np.ndarray,
    num_segs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment (congestion, dilation) of phase legs, summed over phases.

    Every ``(src, dst)`` leg is routed through the topology's fused
    ``route_loads_multi`` kernel — one pass over the flat
    ``segment * num_edges + edge`` key space — and each segment's
    bottleneck ``load/capacity`` and dilation are added up leg by leg.
    """
    caps = topo.edge_capacities()
    congestion = np.zeros(num_segs)
    dilation = np.zeros(num_segs, dtype=np.int64)
    for src, dst in legs:
        loads, dil = topo.route_loads_multi(src, dst, seg, num_segs)
        congestion += (loads / caps).max(axis=1, initial=0.0)
        dilation += dil
    return congestion, dilation


def route_trace(
    trace: Trace, topo: Topology, policy: RoutingPolicy | None = None
) -> RoutedProfile:
    """Route an entire trace, folded onto ``topo.p``, in one columnar pass.

    The fold (surviving supersteps that lost all their messages still
    cost a barrier) comes from the memoised folding kernels and the
    policy's phase legs, which cover the whole trace,
    from :func:`fold_legs`.  Each block of supersteps spanning at most
    ``2**21`` (superstep, edge) cells and ``2**15`` messages is routed
    in one fused kernel pass per phase.  The profile is memoised per
    (trace, topology, policy); cached arrays are read-only.
    """
    policy = policy or _DIRECT
    key = route_key(trace, topo, policy)
    cached = ROUTE_CACHE.get(key)
    if cached is not None:
        return cached
    return ROUTE_CACHE.put(key, compute_route(trace, topo, policy))


def compute_route(
    trace: Trace, topo: Topology, policy: RoutingPolicy
) -> RoutedProfile:
    """:func:`route_trace`'s uncached body: the same profile, computed
    afresh and never looked up in or added to ``ROUTE_CACHE``."""
    if policy.legs_from_content:
        folded = fold_trace(trace, topo.p)
        reps, rank = _distinct(folded)
        legs = policy.phase_legs(topo, reps.labels, reps.offsets, reps.src, reps.dst)
        congestion, dilation = _route_blocks(topo, reps, legs)
        congestion, dilation = congestion[rank], dilation[rank]
    else:
        folded, legs = fold_legs(trace, topo, policy)
        congestion, dilation = _route_blocks(topo, folded, legs)
    time = congestion + dilation + 1.0
    for arr in (congestion, dilation, time):
        arr.setflags(write=False)
    return RoutedProfile(
        topology=topo.name,
        policy=policy.name,
        p=topo.p,
        labels=folded.labels,
        congestion=congestion,
        dilation=dilation,
        time=time,
    )


def _route_blocks(
    topo: Topology, folded: Trace, legs: Legs
) -> tuple[np.ndarray, np.ndarray]:
    """Per-superstep (congestion, dilation) of ``legs`` over ``folded``,
    routed in superstep blocks of at most ``2**21`` (superstep, edge)
    cells and ``2**15`` messages."""
    S, offsets = folded.num_supersteps, folded.offsets
    sidx = folded.superstep_index()
    congestion = np.zeros(S)
    dilation = np.zeros(S, dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // max(1, topo.num_edges()))
    first = 0
    while first < S:
        fits = np.searchsorted(offsets, offsets[first] + _BLOCK_MESSAGES, "right")
        last = min(S, first + rows, max(first + 1, int(fits) - 1))
        lo, hi = int(offsets[first]), int(offsets[last])
        block = [(src[lo:hi], dst[lo:hi]) for src, dst in legs]
        congestion[first:last], dilation[first:last] = _route_legs(
            topo, block, sidx[lo:hi] - first, last - first
        )
        first = last
    return congestion, dilation
