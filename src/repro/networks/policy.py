"""Pluggable routing policies: how endpoint batches become routed paths.

The timing model routes every superstep's message batch along the
topology's deterministic dimension-order paths.  A *routing policy*
rewrites the endpoint batch before that load accounting, turning the
choice of paths into a first-class, swappable component (motivated by
the oblivious-routing literature — Valiant & Brebner '81, and the
random-walk / compact oblivious-routing lines in PAPERS.md):

* :class:`DimensionOrderPolicy` — the identity: one phase, the
  topology's own deterministic dimension-order paths.  Worst-case
  patterns (e.g. a transpose on a mesh) can concentrate load.
* :class:`ValiantPolicy` — two-phase randomized oblivious routing: every
  message first travels to a random intermediate node, then on to its
  destination.  The intermediate is drawn *inside the message's
  i-cluster*, so a cluster-legal superstep stays cluster-legal and the
  policy composes with D-BSP folding.  Draws are a pure function of
  ``(seed, superstep ordinal)`` — profiles are reproducible and safe to
  memoise.  The draw is a counter-based splitmix64 hash, so a whole
  trace draws in a few ``uint64`` array passes.

A policy routes through one method, :meth:`RoutingPolicy.phase_legs`:
given the folded trace's columns, it returns one ``(src, dst)`` leg per
*phase*, each aligned with the flat message order.  Legs depend only on
the policy, ``topo.p`` and the columns — the M(p) clusters are
processor-id ranges whatever the network — so
:func:`~repro.networks.routing.fold_legs` draws them once per (folded
trace, p, policy) and the analytic router and the cycle simulator of
every topology share that draw.  Each routes every phase on its own,
sums congestion and dilation (or cycles) over phases and charges one
barrier per superstep (Valiant's two phases model its two
store-and-forward rounds).
"""

from __future__ import annotations

import numpy as np

from repro.networks.topology import Topology
from repro.util.intmath import SPLITMIX_GAMMA, ilog2, mix64, seed_key, splitmix64

__all__ = [
    "RoutingPolicy",
    "DimensionOrderPolicy",
    "ValiantPolicy",
    "by_policy",
    "POLICIES",
]

Phase = tuple[np.ndarray, np.ndarray]

class RoutingPolicy:
    """Base: rewrite a folded trace's endpoint columns into routing phases.

    A third-party policy overrides :meth:`phase_legs` (and
    :meth:`cache_key` when it has parameters) and registers a
    constructor in :data:`POLICIES`.

    :attr:`legs_from_content` is part of the contract, declared by the
    class and not a user option: ``True`` promises that a superstep's
    legs depend on its own ``src``/``dst`` alone (not on its label, its
    ordinal or any other superstep), so the analytic router
    (:func:`~repro.networks.routing.compute_route`) routes only one
    representative of each class of equal supersteps
    (:attr:`~repro.machine.trace.Trace.pattern`) and gathers its
    congestion and dilation.  It is ``False`` by default: a policy that
    draws per superstep (:class:`ValiantPolicy`) must keep it so.
    """

    name: str = "policy"
    legs_from_content: bool = False

    def cache_key(self) -> tuple:
        """Hashable identity used to memoise routed profiles."""
        return (self.name,)

    def phase_legs(
        self,
        topo: Topology,
        labels: np.ndarray,
        offsets: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> list[Phase]:
        """The ``(src, dst)`` leg of every phase, over the whole trace.

        ``labels``/``offsets``/``src``/``dst`` are the columns of a trace
        folded onto ``topo.p``: superstep ``s`` has cluster label
        ``labels[s]`` (its messages connect processors sharing that many
        leading bits) and owns messages ``[offsets[s], offsets[s+1])``.
        Each leg is aligned with the flat message order; phases run one
        after the other within a superstep.  Implementations must be
        deterministic in ``self``, ``topo.p`` and the columns, and read
        nothing else of ``topo``: the legs are memoised per (folded
        trace, ``topo.p``, :meth:`cache_key`) and shared by every
        topology (:func:`~repro.networks.routing.fold_legs`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement phase_legs"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class DimensionOrderPolicy(RoutingPolicy):
    """Deterministic single-phase routing along the topology's own paths."""

    name = "dimension-order"
    legs_from_content = True

    def phase_legs(self, topo, labels, offsets, src, dst):
        return [(src, dst)]


class ValiantPolicy(RoutingPolicy):
    """Valiant-style two-phase randomized oblivious routing.

    Phase 1 sends each message to a uniformly random intermediate inside
    its superstep's i-cluster (the cluster of the *source*; src and dst
    share it by cluster legality); phase 2 delivers it.  Randomizing the
    middle spreads any fixed adversarial pattern into two near-random
    h-relations at the cost of (at most) doubling the total load.

    The draw is a splitmix64 stream of streams: superstep ``s`` is keyed
    by output ``s`` of the stream seeded at ``seed_key(seed)``, and its
    ``i``-th message keeps its source's leading ``label`` bits and takes
    the top ``log2(p) - label`` bits of output ``i`` of that superstep's
    stream.  Every 64-bit word of ``seed`` feeds the key.
    """

    name = "valiant"

    def __init__(self, seed: int = 0):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"ValiantPolicy seed must be non-negative, got {seed}")
        self.seed = seed
        self._key = seed_key(seed)

    def cache_key(self) -> tuple:
        return (self.name, self.seed)

    def _mids(self, p: int, first: int, labels, counts, src) -> np.ndarray:
        """Intermediates of the flat messages of consecutive supersteps.

        Superstep ``first + k`` (cluster label ``labels[k]``) owns the
        next ``counts[k]`` messages of ``src`` (``int64`` arrays).  A
        label that leaves no free low bits keeps its messages in place.
        """
        gamma = np.uint64(SPLITMIX_GAMMA)
        steps = np.arange(first, first + labels.size, dtype=np.uint64)
        step_keys = mix64(steps * gamma + np.uint64(self._key) + gamma)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        place = (np.arange(1, src.size + 1) - starts).astype(np.uint64)
        h = mix64(place * gamma + np.repeat(step_keys, counts))
        shift = np.repeat(np.maximum(ilog2(p) - labels, 0), counts)
        low = (h >> (64 - shift).astype(np.uint64)).astype(np.int64)
        return (src >> shift << shift) | low

    def intermediates(
        self, topo: Topology, step: int, label: int, src: np.ndarray
    ) -> np.ndarray:
        """The random intermediate of every message (reproducible): one
        superstep's call of the whole-trace draw :meth:`phase_legs` makes,
        equal to :meth:`intermediates_reference` message for message."""
        if step < 0:
            raise ValueError(f"superstep ordinal must be non-negative, got {step}")
        return self._mids(
            topo.p, step, np.array([label]), np.array([src.size]), src
        )

    def intermediates_reference(
        self, topo: Topology, step: int, label: int, src: np.ndarray
    ) -> np.ndarray:
        """:meth:`intermediates` one message at a time in Python ints
        (test oracle)."""
        shift = max(0, ilog2(topo.p) - label)
        if shift == 0:
            return src
        z = splitmix64(seed_key(self.seed) + step * SPLITMIX_GAMMA)
        low = [
            splitmix64(z + i * SPLITMIX_GAMMA) >> (64 - shift)
            for i in range(src.size)
        ]
        return (src >> shift << shift) | np.array(low, dtype=np.int64)

    def phase_legs(self, topo, labels, offsets, src, dst):
        # Every superstep's intermediates in one draw over the trace.
        mid = self._mids(topo.p, 0, labels, np.diff(offsets), src)
        return [(src, mid), (mid, dst)]


#: Registry of shipped policies (name -> constructor taking a seed).
POLICIES = {
    "dimension-order": lambda seed=0: DimensionOrderPolicy(),
    "valiant": ValiantPolicy,
}


def by_policy(name: str, seed: int = 0) -> RoutingPolicy:
    """Construct a routing policy by preset name."""
    if name not in POLICIES:
        raise KeyError(f"unknown policy {name!r}; choose from {sorted(POLICIES)}")
    return POLICIES[name](seed)
