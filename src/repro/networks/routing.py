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
trace's columnar superstep ranges (no per-record objects), batching each
superstep's endpoints through the topology's vectorised router, with the
resulting :class:`RoutedProfile` memoised exactly like the fold kernels
— keyed by (trace identity+version, topology, policy), since network
sweeps route the same trace on many machines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.folding import fold_trace
from repro.machine.trace import Trace, TraceColumns
from repro.networks.policy import DimensionOrderPolicy, RoutingPolicy
from repro.networks.topology import Topology
from repro.util.caches import LRU

__all__ = [
    "superstep_time",
    "RoutedCost",
    "RoutedProfile",
    "route_trace",
    "route_key",
    "clear_route_cache",
    "route_cache_stats",
]

_DIRECT = DimensionOrderPolicy()

ROUTE_CACHE = LRU("route", 256)
#: Drop memoised routed profiles and reset the counters.
clear_route_cache = ROUTE_CACHE.clear
#: Hit/miss/eviction counters of the routed-profile LRU — the hook the
#: pipeline cache-sharing tests assert against.
route_cache_stats = ROUTE_CACHE.stats

#: Ceiling on ``num_supersteps * num_edges`` for the fused whole-trace
#: router: above it the dense (superstep, edge) load grid would dwarf the
#: message count and the per-superstep path wins on memory.
_FUSED_MAX_CELLS = 1 << 21
#: Average messages per superstep up to which the fused router runs.
#: Fusing trades S per-superstep kernel launches for whole-trace array
#: passes.  Timed on a 2-CPU x86 host, it won on every route-sweep and
#: sim-grid benchmark cell (0.13-0.9x the loop's time) and on sort
#: n=1024 and matmul n=64 at p=16/64 (average batches of 132-563
#: messages, 0.29-0.72x), and lost from an average batch of ~1,900 up
#: (sort/fft n=4096, 1.03-4.3x), where the loop's per-superstep chunks
#: stay cache-resident.  A constant keeps the fused-or-looped choice
#: identical in every process.
_FUSED_MAX_BATCH = 1024


def route_key(
    trace: Trace, topo: Topology, policy: RoutingPolicy | None = None
) -> tuple | None:
    """``ROUTE_CACHE`` key of a routed profile (``None``: uncacheable)."""
    token = getattr(trace, "cache_token", None)
    if token is None:
        return None
    return (token, topo.name, topo.p, (policy or _DIRECT).cache_key())


def _fuses(cols: TraceColumns, topo: Topology) -> bool:
    """Route this folded trace through the fused whole-trace kernel?"""
    S = cols.num_supersteps
    return (
        S > 1
        and S * topo.num_edges() <= _FUSED_MAX_CELLS
        and cols.num_messages <= S * _FUSED_MAX_BATCH
    )


@dataclass(frozen=True)
class RoutedCost:
    congestion: float
    dilation: int
    time: float


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

    def superstep(self, s: int) -> RoutedCost:
        """The classic per-superstep cost triple (compatibility view)."""
        return RoutedCost(
            float(self.congestion[s]), int(self.dilation[s]), float(self.time[s])
        )


def superstep_time(
    topo: Topology,
    src: np.ndarray,
    dst: np.ndarray,
    policy: RoutingPolicy | None = None,
    *,
    step: int = 0,
    label: int = 0,
) -> RoutedCost:
    """Routed time of one superstep's messages on ``topo``.

    When passing a policy for a *folded i-superstep*, supply ``step`` and
    ``label``: the defaults describe a lone global (label-0) superstep,
    under which :class:`~repro.networks.policy.ValiantPolicy` draws its
    intermediates machine-wide — correct for label 0, cluster-violating
    for finer labels.  :func:`route_trace` passes the true per-superstep
    values and is the canonical whole-trace path.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if src.size == 0:
        return RoutedCost(0.0, 0, 1.0)
    congestion, dilation = _route_superstep(
        topo, policy or _DIRECT, step, label, src, dst
    )
    return RoutedCost(congestion, dilation, congestion + dilation + 1.0)


def _route_superstep(
    topo: Topology,
    policy: RoutingPolicy,
    step: int,
    label: int,
    src: np.ndarray,
    dst: np.ndarray,
) -> tuple[float, int]:
    """(congestion, dilation) of one non-empty superstep, summed over phases."""
    caps = topo.edge_capacities()
    congestion, dilation = 0.0, 0
    for ph_src, ph_dst in policy.phases(topo, step, label, src, dst):
        cross = ph_src != ph_dst  # policy legs may introduce self-messages
        if not cross.all():
            ph_src, ph_dst = ph_src[cross], ph_dst[cross]
        if ph_src.size == 0:
            continue
        loads, dil = topo.route_loads(ph_src, ph_dst)
        congestion += float((loads / caps).max())
        dilation += int(dil)
    return congestion, dilation


def _profile_arrays_loop(
    topo: Topology, policy: RoutingPolicy, cols: TraceColumns
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-superstep routing loop (the reference whole-trace path)."""
    S = cols.num_supersteps
    congestion = np.zeros(S)
    dilation = np.zeros(S, dtype=np.int64)
    time = np.ones(S)  # barrier-only default: the empty fast path
    offsets, src, dst = cols.offsets, cols.src, cols.dst
    for s in range(S):
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        if hi == lo:
            continue  # folded supersteps carry no self-messages
        c, d = _route_superstep(
            topo, policy, s, int(cols.labels[s]), src[lo:hi], dst[lo:hi]
        )
        congestion[s] = c
        dilation[s] = d
        time[s] = c + d + 1.0
    return congestion, dilation, time


def _profile_arrays_fused(
    topo: Topology, policy: RoutingPolicy, cols: TraceColumns
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Route all supersteps of a folded trace in one pass per phase.

    Each policy phase leg is routed through the topology's fused
    ``route_loads_multi`` kernel — one ``bincount`` over the flat
    ``superstep * num_edges + edge`` key space — and per-superstep
    dilations come from ``pair_distance`` (the routed path length, whose
    agreement with ``route_loads``' dilation is a property-tested
    invariant of every shipped topology).  Returns ``None`` when the
    policy or topology does not support fusion; results are bit-identical
    to :func:`_profile_arrays_loop` (property-tested).
    """
    S = cols.num_supersteps
    legs = policy.phase_legs(topo, cols.labels, cols.offsets, cols.src, cols.dst)
    if legs is None:
        return None
    caps = topo.edge_capacities()
    sidx = cols.superstep_index()
    congestion = np.zeros(S)
    dilation = np.zeros(S, dtype=np.int64)
    try:
        for leg_src, leg_dst in legs:
            keep = leg_src != leg_dst  # policy legs may introduce self-messages
            ls, ld, seg = leg_src[keep], leg_dst[keep], sidx[keep]
            if ls.size == 0:
                continue
            loads = topo.route_loads_multi(ls, ld, seg, S)
            congestion += (loads / caps[None, :]).max(axis=1)
            leg_dil = np.zeros(S, dtype=np.int64)
            np.maximum.at(leg_dil, seg, topo.pair_distance(ls, ld))
            dilation += leg_dil
    except NotImplementedError:
        return None
    return congestion, dilation, congestion + dilation + 1.0


def route_trace(
    trace: Trace, topo: Topology, policy: RoutingPolicy | None = None
) -> RoutedProfile:
    """Route an entire trace, folded onto ``topo.p``, in one columnar pass.

    The fold (``keep_empty=True`` — surviving supersteps that lost all
    their messages still cost a barrier) comes from the memoised folding
    kernels.  When the trace is many small supersteps (dense
    (superstep, edge) grid of at most ``2**21`` cells, at most 1024
    messages per superstep on average) and the policy supports it, all
    supersteps are routed in one fused kernel pass per phase; otherwise
    each superstep's endpoint range is sliced out of the folded columns
    and routed as one batch (empty supersteps short-circuit to
    barrier-only cost).  Both paths are bit-identical.  The profile is
    memoised per (trace, topology, policy); cached arrays are read-only.
    """
    policy = policy or _DIRECT
    key = route_key(trace, topo, policy)
    cached = ROUTE_CACHE.get(key)
    if cached is not None:
        return cached

    folded = fold_trace(trace, topo.p, keep_empty=True)
    cols = folded.columns()
    arrays = _profile_arrays_fused(topo, policy, cols) if _fuses(cols, topo) else None
    if arrays is None:
        arrays = _profile_arrays_loop(topo, policy, cols)
    congestion, dilation, time = arrays
    for arr in (congestion, dilation, time):
        arr.setflags(write=False)
    profile = RoutedProfile(
        topology=topo.name,
        policy=policy.name,
        p=topo.p,
        labels=cols.labels,
        congestion=congestion,
        dilation=dilation,
        time=time,
    )
    return ROUTE_CACHE.put(key, profile)
