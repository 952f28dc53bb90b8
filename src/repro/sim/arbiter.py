"""Link arbitration: who crosses a contested edge this cycle.

Every cycle, each edge serves as many queued flits as its accrued
bandwidth credit allows; when the queue is longer than that, an
*arbiter* decides which flits advance.  Arbiters only order the queue —
they never change how many flits an edge may serve — so the delivered
message set is arbitration-independent (a property-tested invariant of
the simulator).

* :class:`FifoArbiter` — emission order: the message that entered the
  superstep first wins (deterministic, the default).
* :class:`FarthestToGoArbiter` — most remaining hops first (the classic
  "farthest-to-go" heuristic; ties break by emission order).
* :class:`RandomArbiter` — seeded random ranks, redrawn every cycle as a
  pure function of ``(seed, superstep, phase, cycle)``, so profiles stay
  reproducible and safe to memoise (mirroring
  :class:`~repro.networks.policy.ValiantPolicy`'s draw discipline).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Arbiter",
    "FifoArbiter",
    "FarthestToGoArbiter",
    "RandomArbiter",
    "by_arbiter",
    "ARBITERS",
]


class Arbiter:
    """Base: rank the active flits contending for edges in one cycle."""

    name: str = "arbiter"

    #: How :meth:`priorities` depends on the cycle state — lets the fast
    #: engine keep per-edge queues incrementally sorted instead of
    #: recomputing the rank every cycle:
    #:
    #: * ``"index"`` — rank is the static emission index (FIFO);
    #: * ``"remaining"`` — rank is ``-remaining`` (farthest-to-go), which
    #:   changes deterministically by one per hop;
    #: * ``"dynamic"`` — rank is an arbitrary per-cycle function (random
    #:   and any third-party arbiter); the fast engine falls back to the
    #:   per-cycle rank computation for these.
    rank_mode: str = "dynamic"

    def cache_key(self) -> tuple:
        """Hashable identity used to memoise simulated profiles."""
        return (self.name,)

    def priorities(
        self,
        step: int,
        phase: int,
        cycle: int,
        index: np.ndarray,
        remaining: np.ndarray,
    ) -> np.ndarray:
        """Per-flit rank (lower wins) for this cycle's contention.

        ``index`` is each active flit's emission-order message index and
        ``remaining`` its hops still to travel (including the contested
        one).  Ties always break by emission order — the engine sorts
        stably over arrays that are already in ``index`` order.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class FifoArbiter(Arbiter):
    """Emission order: first message in, first across."""

    name = "fifo"
    rank_mode = "index"

    def priorities(self, step, phase, cycle, index, remaining):
        return index


class FarthestToGoArbiter(Arbiter):
    """Longest remaining path first (ties by emission order)."""

    name = "farthest-to-go"
    rank_mode = "remaining"

    def priorities(self, step, phase, cycle, index, remaining):
        return -remaining


class RandomArbiter(Arbiter):
    """Seeded random ranks, redrawn per cycle (reproducible)."""

    name = "random"
    rank_mode = "dynamic"

    def __init__(self, seed: int = 0):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"RandomArbiter seed must be non-negative, got {seed}")
        self.seed = seed

    def cache_key(self) -> tuple:
        return (self.name, self.seed)

    def priorities(self, step, phase, cycle, index, remaining):
        rng = np.random.default_rng((0x51AB17E2, self.seed, step, phase, cycle))
        return rng.permutation(index.size)


#: Registry of shipped arbiters (name -> constructor taking a seed).
ARBITERS = {
    "fifo": lambda seed=0: FifoArbiter(),
    "farthest-to-go": lambda seed=0: FarthestToGoArbiter(),
    "random": RandomArbiter,
}


def by_arbiter(name: str, seed: int = 0) -> Arbiter:
    """Construct a link arbiter by preset name."""
    if name not in ARBITERS:
        raise KeyError(f"unknown arbiter {name!r}; choose from {sorted(ARBITERS)}")
    return ARBITERS[name](seed)
