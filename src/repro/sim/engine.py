"""Cycle-accurate store-and-forward simulation of routed traces.

The analytic engine (:mod:`repro.networks.routing`) prices a superstep
as ``congestion + dilation + 1`` — the Leighton–Maggs–Rao guarantee that
*some* schedule delivers every message in ``O(C + D)`` steps.  This
module measures what an actual store-and-forward execution does: every
message becomes a single flit walking its
:meth:`~repro.networks.topology.Topology.route_paths` hop sequence, and
every cycle each edge forwards as many queued flits as its bandwidth
credit allows, under a pluggable :class:`~repro.sim.arbiter.Arbiter`.
The measured/(C+D) ratio per superstep is the hidden LMR constant per
(topology, policy) cell — and a cell where the analytic model is
*optimistic* (ratio above the expected constant band) is exactly what
this simulator exists to flag.

Mechanics (one phase of one superstep):

* flit ``t`` occupies hop ``pos[t]`` of its path; each cycle it bids for
  the edge ``edges[offsets[t] + pos[t]]``;
* an edge accrues ``capacity`` bandwidth credit per cycle *while it has
  demand* (idle edges hold no credit — links cannot bank bandwidth) and
  forwards ``floor(credit)`` flits, keeping the fractional remainder
  while saturated; fractional capacities (the fat-tree's ``sqrt``
  sizing) therefore serve their exact long-run rate;
* the arbiter only orders the queue, so measured cycles satisfy
  ``max(C, D) <= cycles <= (C + 1) * D`` per phase (each hop waits at
  most the bottleneck's full service time) — the property-tested
  bracket around the LMR ``O(C + D)`` schedule.

The per-cycle advancement is vectorized over the flat (message, hop)
arrays — one ``lexsort`` + ``bincount`` round per cycle, never a
per-flit Python loop.  Whole traces are simulated by
:func:`simulate_trace` into a columnar :class:`SimProfile`, memoised
exactly like :class:`~repro.networks.routing.RoutedProfile` (keyed by
trace identity+version x topology x policy x arbiter).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.machine.folding import fold_trace
from repro.machine.trace import Trace
from repro.networks.policy import DimensionOrderPolicy, RoutingPolicy
from repro.networks.routing import route_trace
from repro.networks.topology import Topology
from repro.sim.arbiter import Arbiter, by_arbiter
from repro.sim.fastpath import expand_paths
from repro.sim.fastpath import engine_stats as sim_engine_stats
from repro.sim.fastpath import reset_engine_stats as reset_sim_engine_stats
from repro.sim.fastpath import run_batch as _fast_run_batch
from repro.sim.fastpath import run_trace as _fast_run_trace
from repro.util import sanitize
from repro.util.caches import LRU

__all__ = [
    "SimProfile",
    "simulate_trace",
    "simulate_many",
    "simulate_superstep",
    "sim_key",
    "clear_sim_cache",
    "sim_cache_stats",
    "sim_engine_stats",
    "reset_sim_engine_stats",
]

_DIRECT = DimensionOrderPolicy()

#: Engine selector: ``fast`` is the event-driven numpy engine,
#: ``reference`` the original per-cycle loop it is property-tested
#: bit-identical against.  The ``REPRO_SIM_ENGINE`` environment
#: variable sets the default.
ENGINES = ("fast", "reference")
_ENGINE_ENV = "REPRO_SIM_ENGINE"


def _resolve_engine(engine: str | None) -> str:
    """Validate a selector; both engines are bit-identical, so the
    choice only affects speed."""
    name = engine if engine is not None else os.environ.get(_ENGINE_ENV, "fast")
    if name not in ENGINES:
        raise ValueError(f"unknown sim engine {name!r}; choose from {ENGINES}")
    return name


def _check_flits(flits_per_message: int) -> int:
    flits = int(flits_per_message)
    if flits < 1:
        raise ValueError(f"flits_per_message must be >= 1, got {flits_per_message}")
    return flits


SIM_CACHE = LRU("sim", 128)
#: Drop memoised sim profiles and reset the counters.
clear_sim_cache = SIM_CACHE.clear
#: Hit/miss/eviction counters of the sim-profile LRU.
sim_cache_stats = SIM_CACHE.stats


def sim_key(
    trace: Trace,
    topo: Topology,
    policy: RoutingPolicy | None = None,
    arbiter: Arbiter | str = "fifo",
    arbiter_seed: int = 0,
    flits_per_message: int = 1,
) -> tuple | None:
    """``SIM_CACHE`` key of a sim profile (``None``: uncacheable).

    Arguments follow :func:`simulate_trace`; a named ``arbiter`` is
    built with ``arbiter_seed``.  The engine is not part of the key.
    """
    token = getattr(trace, "cache_token", None)
    if token is None:
        return None
    if isinstance(arbiter, str):
        arbiter = by_arbiter(arbiter, arbiter_seed)
    return (
        token,
        topo.name,
        topo.p,
        (policy or _DIRECT).cache_key(),
        arbiter.cache_key(),
        _check_flits(flits_per_message),
    )


@dataclass(frozen=True)
class SimProfile:
    """Columnar measured execution of one folded trace on one topology.

    Parallel per-superstep arrays: ``cycles[s]`` is the measured
    store-and-forward cycle count (summed over routing-policy phases),
    ``congestion[s]``/``dilation[s]`` the analytic quantities of the
    matching :class:`~repro.networks.routing.RoutedProfile`,
    ``max_queue[s]`` the worst per-edge queue occupancy observed and
    ``delivered[s]`` the cross-processor messages delivered.
    ``edge_flits`` totals the flits forwarded per edge across the whole
    trace (arbitration-independent: paths fix it).
    """

    topology: str
    policy: str
    arbiter: str
    p: int
    labels: np.ndarray
    cycles: np.ndarray
    congestion: np.ndarray
    dilation: np.ndarray
    max_queue: np.ndarray
    delivered: np.ndarray
    edge_flits: np.ndarray
    #: Per-edge bandwidth capacities of the simulated topology, so
    #: utilization is exact by default (the fat-tree's sqrt sizing is
    #: not unit-capacity).
    capacities: np.ndarray | None = None
    #: Flits per message the trace was simulated under; analytic
    #: congestion counts messages, so the flit-level price is
    #: ``flits_per_message * congestion + dilation``.
    flits_per_message: int = 1

    @property
    def num_supersteps(self) -> int:
        return int(self.labels.shape[0])

    @property
    def total_cycles(self) -> int:
        return int(self.cycles.sum())

    @property
    def total_messages(self) -> int:
        return int(self.delivered.sum())

    def edge_utilization(self, capacities: np.ndarray | None = None) -> np.ndarray:
        """Per-edge utilization: flits forwarded / capacity-cycles offered.

        Uses the profile's stored ``capacities`` by default (exact on
        every shipped topology, including the fat-tree's sqrt sizing);
        pass ``capacities`` explicitly to normalise differently.  Unit
        capacities are the last-resort fallback for hand-built profiles.
        """
        total = max(self.total_cycles, 1)
        if capacities is None:
            capacities = self.capacities if self.capacities is not None else 1.0
        return self.edge_flits / (capacities * total)

    def bound_ratios(self) -> np.ndarray:
        """Measured/(F*C+D) per superstep (NaN where nothing was routed).

        This is the empirical LMR constant: the analytic engine charges
        ``congestion + dilation`` communication steps per *message*, so
        at ``flits_per_message = F`` the flit-level price is
        ``F * C + D``; the simulator measures what a real
        store-and-forward schedule needed.
        """
        denom = self.flits_per_message * self.congestion + self.dilation
        out = np.full(self.num_supersteps, np.nan)
        busy = denom > 0
        np.divide(self.cycles, denom, out=out, where=busy)
        return out

    @property
    def overall_ratio(self) -> float | None:
        """Trace-total measured/(F*C+D) (None when nothing was routed)."""
        denom = float(
            self.flits_per_message * self.congestion.sum() + self.dilation.sum()
        )
        return self.total_cycles / denom if denom else None

    @property
    def max_ratio(self) -> float:
        """Worst per-superstep measured/(C+D) over the trace (0 if idle)."""
        ratios = self.bound_ratios()
        finite = ratios[~np.isnan(ratios)]
        return float(finite.max()) if finite.size else 0.0

    @property
    def mean_ratio(self) -> float:
        """Message-weighted mean measured/(C+D) over non-empty supersteps."""
        ratios = self.bound_ratios()
        busy = ~np.isnan(ratios)
        if not busy.any():
            return 0.0
        weights = self.delivered[busy].astype(np.float64)
        total = weights.sum()
        if total == 0:
            return float(ratios[busy].mean())
        return float((ratios[busy] * weights).sum() / total)


def _run_phase_reference(
    caps: np.ndarray,
    offsets: np.ndarray,
    edges: np.ndarray,
    arbiter: Arbiter,
    step: int,
    phase: int,
    edge_flits: np.ndarray,
) -> tuple[int, int]:
    """Simulate one routing phase to completion; (cycles, max queue).

    ``offsets``/``edges`` are the CSR hop paths of the phase's flits in
    emission order; ``edge_flits`` is accumulated in place.  This is
    the reference engine — one lexsort + bincount round per cycle — and
    the oracle the fast engine (:mod:`repro.sim.fastpath`) is
    property-tested bit-identical against.
    """
    E = caps.size
    lengths = np.diff(offsets)
    pos = np.zeros(lengths.size, dtype=np.int64)
    active = np.flatnonzero(lengths > 0)
    credits = np.zeros(E)
    cycles = 0
    max_queue = 0
    while active.size:
        want = edges[offsets[active] + pos[active]]
        queue = np.bincount(want, minlength=E)
        busy = queue > 0
        max_queue = max(max_queue, int(queue.max()))
        # Demand-gated credit accrual: a saturated edge carries its
        # fractional remainder (long-run rate exactly `capacity`), an
        # idle edge banks nothing, a demand-limited edge forfeits the
        # bandwidth it could not use.
        credits[busy] += caps[busy]
        credits[~busy] = 0.0
        avail = np.floor(credits).astype(np.int64)
        remaining = lengths[active] - pos[active]
        prio = arbiter.priorities(step, phase, cycles, active, remaining)
        order = np.lexsort((prio, want))  # stable: ties keep emission order
        w_sorted = want[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(w_sorted)) + 1))
        counts = np.diff(np.concatenate((starts, [w_sorted.size])))
        rank = np.arange(w_sorted.size, dtype=np.int64) - np.repeat(starts, counts)
        winners = rank < avail[w_sorted]
        served = np.bincount(w_sorted[winners], minlength=E)
        edge_flits += served
        credits -= served
        spare = busy & (avail > queue)
        credits[spare] %= 1.0
        pos[active[order[winners]]] += 1
        active = active[pos[active] < lengths[active]]
        cycles += 1
    return cycles, max_queue


def _simulate_batch(
    topo: Topology,
    caps: np.ndarray,
    policy: RoutingPolicy,
    arbiter: Arbiter,
    step: int,
    label: int,
    src: np.ndarray,
    dst: np.ndarray,
    edge_flits: np.ndarray,
    flits: int = 1,
) -> tuple[int, int]:
    """One superstep's batch through every policy phase; (cycles, max queue).

    Phases execute sequentially — phase 2 starts only after phase 1
    fully delivers, matching the analytic engine's summed per-phase
    congestion/dilation.  ``edge_flits`` is accumulated in place.
    """
    cycles, max_queue = 0, 0
    for ph, (ph_src, ph_dst) in enumerate(
        policy.phases(topo, step, label, src, dst)
    ):
        cross = ph_src != ph_dst  # policy legs may introduce self-messages
        ph_src, ph_dst = ph_src[cross], ph_dst[cross]
        if ph_src.size == 0:
            continue
        poff, pedges = topo.route_paths(ph_src, ph_dst)
        poff, pedges = expand_paths(poff, pedges, flits)
        c, q = _run_phase_reference(
            caps, poff, pedges, arbiter, step, ph, edge_flits
        )
        cycles += c
        max_queue = max(max_queue, q)
    return cycles, max_queue


def simulate_superstep(
    topo: Topology,
    src: np.ndarray,
    dst: np.ndarray,
    policy: RoutingPolicy | None = None,
    arbiter: Arbiter | str = "fifo",
    *,
    step: int = 0,
    label: int = 0,
    seed: int = 0,
    flits_per_message: int = 1,
    engine: str | None = None,
) -> tuple[int, int, int]:
    """Measured (cycles, max queue, delivered) of one superstep's batch.

    ``step``/``label`` follow the
    :func:`~repro.networks.routing.superstep_time` convention;
    ``delivered`` counts messages even when each expands to
    ``flits_per_message`` flits.
    """
    if isinstance(arbiter, str):
        arbiter = by_arbiter(arbiter, seed)
    flits = _check_flits(flits_per_message)
    mode = _resolve_engine(engine)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    edge_flits = np.zeros(topo.num_edges(), dtype=np.int64)
    cycles, max_queue = 0, 0
    if src.size:
        if mode == "reference":
            cycles, max_queue = _simulate_batch(
                topo, topo.edge_capacities(), policy or _DIRECT, arbiter,
                step, label, src, dst, edge_flits, flits,
            )
        else:
            c, q, _ = _fast_run_trace(
                topo, topo.edge_capacities(), policy or _DIRECT, arbiter,
                [(step, label, src, dst)], flits,
            )
            cycles, max_queue = int(c[0]), int(q[0])
    return cycles, max_queue, int(src.size)


def simulate_trace(
    trace: Trace,
    topo: Topology,
    policy: RoutingPolicy | None = None,
    arbiter: Arbiter | str = "fifo",
    *,
    seed: int = 0,
    flits_per_message: int = 1,
    engine: str | None = None,
) -> SimProfile:
    """Simulate an entire trace, folded onto ``topo.p``, cycle by cycle.

    Consumes the same columnar artifacts as
    :func:`~repro.networks.routing.route_trace` — the memoised
    ``keep_empty`` fold and the policy's per-superstep phase batches —
    so a sim profile and its analytic twin describe the identical
    message sets.  The analytic congestion/dilation columns are copied
    straight from the memoised :class:`RoutedProfile`, which makes
    ``measured/(C+D)`` comparisons self-consistent by construction.
    Each message expands to ``flits_per_message`` identical-path flits
    (message-major emission order).  ``engine`` picks the executor
    (``fast``/``reference``; default from ``REPRO_SIM_ENGINE``, else
    ``fast``)
    — both are bit-identical, so the engine is *not* part of the cache
    key.  Profiles are memoised per (trace, topology, policy, arbiter,
    flits); cached arrays are read-only.
    """
    policy = policy or _DIRECT
    if isinstance(arbiter, str):
        arbiter = by_arbiter(arbiter, seed)
    flits = _check_flits(flits_per_message)
    mode = _resolve_engine(engine)
    key = sim_key(trace, topo, policy, arbiter, flits_per_message=flits)
    cached = SIM_CACHE.get(key)
    if cached is not None:
        return cached

    cols, batches, delivered = _prep_trace(trace, topo)
    caps = topo.edge_capacities()
    S = cols.num_supersteps
    cycles = np.zeros(S, dtype=np.int64)
    max_queue = np.zeros(S, dtype=np.int64)
    edge_flits = np.zeros(topo.num_edges(), dtype=np.int64)
    if mode == "reference":
        for s, label, b_src, b_dst in batches:
            cycles[s], max_queue[s] = _simulate_batch(
                topo, caps, policy, arbiter, s, label, b_src, b_dst,
                edge_flits, flits,
            )
    elif batches:
        b_cycles, b_queue, edge_flits = _fast_run_trace(
            topo, caps, policy, arbiter, batches, flits
        )
        idx = np.array([b[0] for b in batches], dtype=np.int64)
        cycles[idx] = b_cycles
        max_queue[idx] = b_queue
        if sanitize.should_crosscheck():
            _crosscheck_reference(
                topo, caps, policy, arbiter, batches, flits,
                cycles, max_queue, edge_flits, "simulate_trace",
            )
    return SIM_CACHE.put(key, _build_profile(
        trace, topo, policy, arbiter, flits, cols, delivered,
        cycles, max_queue, edge_flits,
    ))


def _prep_trace(trace: Trace, topo: Topology) -> tuple:
    """Fold a trace and slice its non-empty superstep batches."""
    cols = fold_trace(trace, topo.p, keep_empty=True).columns()
    S = cols.num_supersteps
    delivered = np.zeros(S, dtype=np.int64)
    offsets, src, dst = cols.offsets, cols.src, cols.dst
    batches = []
    for s in range(S):
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        if hi == lo:
            continue  # barrier-only superstep: nothing to move
        batches.append((s, int(cols.labels[s]), src[lo:hi], dst[lo:hi]))
        delivered[s] = hi - lo
    return cols, batches, delivered


def _build_profile(
    trace: Trace,
    topo: Topology,
    policy: RoutingPolicy,
    arbiter: Arbiter,
    flits: int,
    cols,
    delivered: np.ndarray,
    cycles: np.ndarray,
    max_queue: np.ndarray,
    edge_flits: np.ndarray,
) -> SimProfile:
    """Assemble the immutable profile (analytic columns + measured)."""
    routed = route_trace(trace, topo, policy)
    caps = topo.edge_capacities().copy()
    for arr in (cycles, max_queue, delivered, edge_flits, caps):
        arr.setflags(write=False)
    return SimProfile(
        topology=topo.name,
        policy=policy.name,
        arbiter=arbiter.name,
        p=topo.p,
        labels=cols.labels,
        cycles=cycles,
        congestion=routed.congestion,
        dilation=routed.dilation,
        max_queue=max_queue,
        delivered=delivered,
        edge_flits=edge_flits,
        capacities=caps,
        flits_per_message=flits,
    )


def _crosscheck_reference(
    topo: Topology,
    caps: np.ndarray,
    policy: RoutingPolicy,
    arbiter: Arbiter,
    batches: list,
    flits: int,
    cycles: np.ndarray,
    max_queue: np.ndarray,
    edge_flits: np.ndarray,
    where: str,
) -> None:
    """REPRO_SANITIZE: re-run this workload through the reference cycle
    loop and require bit-identity with the fast engine's results."""
    ref_cycles = np.zeros_like(cycles)
    ref_queue = np.zeros_like(max_queue)
    ref_edge = np.zeros_like(edge_flits)
    for s, label, b_src, b_dst in batches:
        ref_cycles[s], ref_queue[s] = _simulate_batch(
            topo, caps, policy, arbiter, s, label, b_src, b_dst,
            ref_edge, flits,
        )
    sanitize.check_engine_parity(
        (cycles, max_queue, edge_flits),
        (ref_cycles, ref_queue, ref_edge),
        where,
    )


def simulate_many(
    items: list,
    *,
    seed: int = 0,
    flits_per_message: int = 1,
    engine: str | None = None,
) -> list[SimProfile]:
    """Simulate many ``(trace, topo, policy, arbiter)`` cells, batched.

    The grid twin of :func:`simulate_trace`: results, cache keys and
    cached contents are bit-identical to per-cell calls — but with the
    fast engine, every cache-missing cell whose arbiter rank is static
    joins one fused cycle loop (:func:`repro.sim.fastpath.run_batch`),
    so a whole experiment sweep costs its *longest* superstep chain
    instead of the sum over cells.  ``policy``/``arbiter`` entries may
    be ``None``/names exactly as in :func:`simulate_trace`; dynamic
    arbiters and the reference engine fall back per cell.
    """
    flits = _check_flits(flits_per_message)
    mode = _resolve_engine(engine)
    norm = []
    for trace, topo, policy, arbiter in items:
        if isinstance(arbiter, str):
            arbiter = by_arbiter(arbiter, seed)
        norm.append((trace, topo, policy or _DIRECT, arbiter))
    profiles: list[SimProfile | None] = [None] * len(norm)
    pending: list[tuple] = []  # (item index, key, cols, batches, delivered)
    for i, (trace, topo, policy, arbiter) in enumerate(norm):
        if mode == "reference" or arbiter.rank_mode == "dynamic":
            profiles[i] = simulate_trace(
                trace, topo, policy, arbiter,
                seed=seed, flits_per_message=flits, engine=engine,
            )
            continue
        key = sim_key(trace, topo, policy, arbiter, flits_per_message=flits)
        cached = SIM_CACHE.get(key)
        if cached is not None:
            profiles[i] = cached
            continue
        cols, batches, delivered = _prep_trace(trace, topo)
        pending.append((i, key, cols, batches, delivered))
    if pending:
        cells = [
            (norm[i][1], norm[i][1].edge_capacities(), norm[i][2], norm[i][3],
             batches, flits)
            for i, _, _, batches, _ in pending
        ]
        results = _fast_run_batch(cells)
        for (i, key, cols, batches, delivered), (b_cycles, b_queue, ef) in zip(
            pending, results
        ):
            trace, topo, policy, arbiter = norm[i]
            S = cols.num_supersteps
            cycles = np.zeros(S, dtype=np.int64)
            max_queue = np.zeros(S, dtype=np.int64)
            if batches:
                idx = np.array([b[0] for b in batches], dtype=np.int64)
                cycles[idx] = b_cycles
                max_queue[idx] = b_queue
            edge_flits = np.ascontiguousarray(ef)
            if batches and sanitize.should_crosscheck():
                _crosscheck_reference(
                    topo, topo.edge_capacities(), policy, arbiter, batches,
                    flits, cycles, max_queue, edge_flits, "simulate_many",
                )
            profiles[i] = SIM_CACHE.put(key, _build_profile(
                trace, topo, policy, arbiter, flits, cols, delivered,
                cycles, max_queue, edge_flits,
            ))
    return profiles
