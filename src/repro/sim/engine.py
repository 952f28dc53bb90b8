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

Whole traces are simulated by :func:`simulate_trace` (the event-driven
fast engine of :mod:`repro.sim.fastpath`, one fused cycle loop for
every arbiter) into a columnar :class:`SimProfile`, memoised exactly
like :class:`~repro.networks.routing.RoutedProfile` (keyed by trace
identity x topology x policy x arbiter).
:func:`simulate_trace_reference` is its uncached test oracle: the
original per-cycle loop, vectorized over the flat (message, hop) arrays
— one :meth:`~repro.sim.arbiter.Arbiter.priorities` call over the
phase's active flits and one ``lexsort`` + ``bincount`` round per
cycle — that the fast engine is property-tested bit-identical against.
Both engines read one superstep layout, the folded
:class:`~repro.machine.trace.Trace`'s columns, and take every phase leg
from one :meth:`~repro.networks.policy.RoutingPolicy.phase_legs` draw
over it: the fast engine shares the analytic router's memoised draw
(:func:`~repro.networks.routing.fold_legs`), the reference makes its own
call so the oracle stays apart from the memo.  Barrier-only supersteps
report zero cycles, queue and deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.folding import fold_trace
from repro.machine.trace import Trace
from repro.networks.policy import DimensionOrderPolicy, RoutingPolicy
from repro.networks.routing import RoutedProfile, fold_legs, route_trace
from repro.networks.topology import Topology
from repro.sim.arbiter import Arbiter, by_arbiter
from repro.sim.fastpath import expand_paths
from repro.sim.fastpath import run_batch as _fast_run_batch
from repro.util import sanitize
from repro.util.caches import LRU

__all__ = [
    "SimProfile",
    "simulate_trace",
    "simulate_trace_reference",
    "simulate_many",
    "compute_sims",
    "sim_key",
]

_DIRECT = DimensionOrderPolicy()

def _check_flits(flits_per_message: int) -> int:
    flits = int(flits_per_message)
    if flits < 1:
        raise ValueError(f"flits_per_message must be >= 1, got {flits_per_message}")
    return flits


SIM_CACHE = LRU("sim", 128)


def sim_key(
    trace: Trace,
    topo: Topology,
    policy: RoutingPolicy | None = None,
    arbiter: Arbiter | str = "fifo",
    arbiter_seed: int = 0,
    flits_per_message: int = 1,
) -> tuple:
    """``SIM_CACHE`` key of a sim profile.

    Arguments follow :func:`simulate_trace`; a named ``arbiter`` is
    built with ``arbiter_seed``.
    """
    if isinstance(arbiter, str):
        arbiter = by_arbiter(arbiter, arbiter_seed)
    return (
        trace.cache_token,
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
    the reference loop — one lexsort + bincount round per cycle — and
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


def simulate_trace(
    trace: Trace,
    topo: Topology,
    policy: RoutingPolicy | None = None,
    arbiter: Arbiter | str = "fifo",
    *,
    seed: int = 0,
    flits_per_message: int = 1,
) -> SimProfile:
    """Simulate an entire trace, folded onto ``topo.p``, cycle by cycle.

    Consumes the same columnar artifacts as
    :func:`~repro.networks.routing.route_trace` — the memoised
    fold and the policy's phase legs from the one
    memoised draw (:func:`~repro.networks.routing.fold_legs`) — so a
    sim profile and its analytic twin describe the identical message
    sets.  The analytic congestion/dilation columns are copied straight
    from the memoised :class:`RoutedProfile`, which makes
    ``measured/(C+D)`` comparisons self-consistent by construction.
    Each message expands to ``flits_per_message`` identical-path flits
    (message-major emission order).  Profiles are memoised per (trace,
    topology, policy, arbiter, flits); cached arrays are read-only.
    This is the one-cell call of :func:`simulate_many`.
    """
    (profile,) = simulate_many(
        [(trace, topo, policy, arbiter)],
        seed=seed, flits_per_message=flits_per_message,
    )
    return profile


def simulate_trace_reference(
    trace: Trace,
    topo: Topology,
    policy: RoutingPolicy | None = None,
    arbiter: Arbiter | str = "fifo",
    *,
    seed: int = 0,
    flits_per_message: int = 1,
) -> SimProfile:
    """:func:`simulate_trace` through the reference cycle loop (test oracle).

    Same arguments and bit-identical result, but every non-empty
    superstep runs :func:`_run_phase_reference` per policy phase, and
    the sim-profile LRU is neither read nor written.  Tests use it (the
    ``REPRO_SANITIZE`` cross-check shares its loop); production code
    never does.
    """
    policy = policy or _DIRECT
    if isinstance(arbiter, str):
        arbiter = by_arbiter(arbiter, seed)
    flits = _check_flits(flits_per_message)
    folded = fold_trace(trace, topo.p)
    return _build_profile(
        route_trace(trace, topo, policy), topo, policy, arbiter, flits, folded,
        *_reference_arrays(topo, policy, arbiter, folded, flits),
    )


def _reference_arrays(
    topo: Topology,
    policy: RoutingPolicy,
    arbiter: Arbiter,
    folded: Trace,
    flits: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-superstep cycles and max queue, plus edge flits, of the folded
    trace ``folded`` through the reference cycle loop (``REPRO_SANITIZE``
    compares the fast engine against it).

    The policy's legs come from one ``phase_legs`` call over the whole
    trace, sliced per superstep; the call bypasses the legs memo, so the
    oracle does not share a bug in it.  A superstep's phases execute
    sequentially — phase 2 starts only after phase 1 fully delivers,
    matching the analytic engine's summed per-phase congestion/dilation.
    """
    legs = policy.phase_legs(topo, folded.labels, folded.offsets, folded.src, folded.dst)
    caps = topo.edge_capacities()
    cycles = np.zeros(folded.num_supersteps, dtype=np.int64)
    max_queue = np.zeros(folded.num_supersteps, dtype=np.int64)
    edge_flits = np.zeros(topo.num_edges(), dtype=np.int64)
    bounds = folded.offsets.tolist()
    for s in np.flatnonzero(folded.counts).tolist():
        lo, hi = bounds[s], bounds[s + 1]
        for ph, (ph_src, ph_dst) in enumerate(legs):
            ph_src, ph_dst = ph_src[lo:hi], ph_dst[lo:hi]
            cross = ph_src != ph_dst  # policy legs may introduce self-messages
            if not cross.any():
                continue
            poff, pedges = expand_paths(
                *topo.route_paths(ph_src[cross], ph_dst[cross]), flits
            )
            c, q = _run_phase_reference(
                caps, poff, pedges, arbiter, s, ph, edge_flits
            )
            cycles[s] += c
            max_queue[s] = max(max_queue[s], q)
    return cycles, max_queue, edge_flits


def _build_profile(
    routed: RoutedProfile,
    topo: Topology,
    policy: RoutingPolicy,
    arbiter: Arbiter,
    flits: int,
    folded: Trace,
    cycles: np.ndarray,
    max_queue: np.ndarray,
    edge_flits: np.ndarray,
) -> SimProfile:
    """Assemble the immutable profile (``routed``'s analytic columns +
    measured); every folded message is delivered."""
    delivered = folded.counts
    caps = topo.edge_capacities().copy()
    for arr in (cycles, max_queue, delivered, edge_flits, caps):
        arr.setflags(write=False)
    return SimProfile(
        topology=topo.name,
        policy=policy.name,
        arbiter=arbiter.name,
        p=topo.p,
        labels=folded.labels,
        cycles=cycles,
        congestion=routed.congestion,
        dilation=routed.dilation,
        max_queue=max_queue,
        delivered=delivered,
        edge_flits=edge_flits,
        capacities=caps,
        flits_per_message=flits,
    )


def simulate_many(
    items: list,
    *,
    seed: int = 0,
    flits_per_message: int = 1,
) -> list[SimProfile]:
    """Simulate many ``(trace, topo, policy, arbiter)`` cells, batched.

    The grid twin of :func:`simulate_trace`: results, cache keys and
    cached contents are bit-identical to per-cell calls — but every
    cache-missing cell goes to one :func:`compute_sims` call, so each
    fused loop of a sweep costs its *longest* superstep chain instead
    of the sum over its cells.  ``policy``/``arbiter`` entries may be
    ``None``/names exactly as in :func:`simulate_trace`.
    """
    flits = _check_flits(flits_per_message)
    norm = []
    for trace, topo, policy, arbiter in items:
        if isinstance(arbiter, str):
            arbiter = by_arbiter(arbiter, seed)
        norm.append((trace, topo, policy or _DIRECT, arbiter))
    keys = [sim_key(*item, flits_per_message=flits) for item in norm]
    profiles = [SIM_CACHE.get(key) for key in keys]
    cold = [i for i, profile in enumerate(profiles) if profile is None]
    fresh = compute_sims(
        [norm[i] + (flits,) for i in cold], [route_trace(*norm[i][:3]) for i in cold]
    )
    for i, profile in zip(cold, fresh):
        profiles[i] = SIM_CACHE.seed(keys[i], profile)
    return profiles


def compute_sims(items: list, routed: list[RoutedProfile]) -> list[SimProfile]:
    """:func:`simulate_many`'s uncached body over built ``(trace, topo,
    policy, arbiter, flits)`` cells and each cell's ``routed`` profile
    (whose analytic columns the sim profile copies).  The cells run in
    fused cycle loops of at most
    :data:`~repro.sim.fastpath.FLIT_BUDGET` flits per arbiter group
    (:func:`repro.sim.fastpath.run_batch`).  Folds and phase legs come
    from the traces' own memo (:func:`~repro.networks.routing.fold_legs`);
    the route and sim LRUs are neither read nor written.
    """
    fold_and_legs = [fold_legs(*item[:3]) for item in items]
    results = _fast_run_batch([
        (topo, topo.edge_capacities(), legs, arbiter, folded, flits)
        for (_, topo, _, arbiter, flits), (folded, legs) in zip(items, fold_and_legs)
    ])
    profiles = []
    for (_, topo, policy, arbiter, flits), (folded, _), route, (
        cycles, max_queue, edge_flits
    ) in zip(items, fold_and_legs, routed, results):
        if sanitize.should_crosscheck():
            sanitize.check_engine_parity(
                (cycles, max_queue, edge_flits),
                _reference_arrays(topo, policy, arbiter, folded, flits),
                "simulate_many",
            )
        profiles.append(_build_profile(
            route, topo, policy, arbiter, flits, folded,
            cycles, max_queue, edge_flits,
        ))
    return profiles
