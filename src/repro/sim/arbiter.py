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
* :class:`RandomArbiter` — seeded random ranks, redrawn every cycle: a
  counter-based hash (Salmon et al., "Parallel random numbers: as easy
  as 1, 2, 3", SC'11) of each flit's own ``(seed, superstep, phase,
  cycle in phase, index in phase)``, keyed by the shared splitmix64
  seed key of :func:`repro.util.intmath.seed_key`, so profiles stay
  reproducible and safe to memoise.

Ranks are per-flit pure (see :meth:`Arbiter.priorities`): a flit's rank
never depends on which other flits contend with it, which is what lets
the fast engine rank the active flits of a whole batch of simulations
in one call per cycle.
"""

from __future__ import annotations

import numpy as np

from repro.util.intmath import seed_key

__all__ = [
    "Arbiter",
    "FifoArbiter",
    "FarthestToGoArbiter",
    "RandomArbiter",
    "by_arbiter",
    "ARBITERS",
]


class Arbiter:
    """Base: rank the active flits contending for edges in one cycle.

    A third-party arbiter overrides :meth:`priorities` (and
    :meth:`cache_key` when it has parameters) and keeps the default
    ``rank_mode``; the fast engine then ranks the active flits of every
    simulation it runs together with one :meth:`priorities` call per
    cycle that has a contended queue.
    """

    name: str = "arbiter"

    #: How :meth:`priorities` depends on the cycle state — lets the fast
    #: engine keep per-edge queues incrementally sorted instead of
    #: recomputing the rank every cycle:
    #:
    #: * ``"index"`` — rank is the static emission index (FIFO);
    #: * ``"remaining"`` — rank is ``-remaining`` (farthest-to-go), which
    #:   changes deterministically by one per hop;
    #: * ``"dynamic"`` — rank is any per-flit pure per-cycle function
    #:   (random and any third-party arbiter); the fast engine calls
    #:   :meth:`priorities` on every cycle with a contended queue.
    rank_mode: str = "dynamic"

    def cache_key(self) -> tuple:
        """Hashable identity used to memoise simulated profiles."""
        return (self.name,)

    def priorities(
        self,
        step: np.ndarray,
        phase: np.ndarray,
        cycle: np.ndarray,
        index: np.ndarray,
        remaining: np.ndarray,
    ) -> np.ndarray:
        """Per-flit rank (lower wins) for this cycle's contention.

        Vectorised over flits: ``index`` and ``remaining`` are integer
        arrays with one entry per flit, and ``step``, ``phase`` and
        ``cycle`` are integer arrays of the same length or scalars
        shared by every flit.  Flit ``i`` is in superstep ``step[i]`` (its
        ordinal in the folded trace) and routing phase ``phase[i]``,
        ``cycle[i]`` cycles after that phase started; ``index[i]`` is
        its emission index within the phase and ``remaining[i]`` its
        hops still to travel, the contested one included.

        The rank must be *per-flit pure*: entry ``i`` depends only on
        entry ``i`` of the arguments, never on which other flits share
        the call.  The reference loop ranks one phase's active flits per
        call; the fast engine ranks the active flits of many supersteps
        and simulations in one call, so both see the same ranks only
        under this contract.  Ranks may be of any numeric dtype
        (unsigned ranks of at most 32 bits are the fast engine's cheap
        case); ties break by emission index.
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


#: Odd multipliers spreading the flit index (the 32-bit golden ratio)
#: and the superstep, phase and cycle counters over a 32-bit word.
_INDEX = np.uint32(0x9E3779B9)
_STEP = np.uint32(0x85EBCA77)
_PHASE = np.uint32(0xC2B2AE3D)
_CYCLE = np.uint32(0x27D4EB2F)
#: MurmurHash3's 32-bit finaliser multipliers.
_FMIX1 = np.uint32(0x85EBCA6B)
_FMIX2 = np.uint32(0xC2B2AE35)


def _u32(a) -> np.ndarray:
    """``a`` as uint32 (4-byte integer arrays are reinterpreted, not
    copied; wider values wrap)."""
    a = np.asarray(a)
    if a.dtype.kind in "iu" and a.dtype.itemsize == 4:
        return a.view(np.uint32)
    return a.astype(np.uint32)


class RandomArbiter(Arbiter):
    """Seeded random ranks, redrawn per cycle (reproducible).

    A flit's rank is a counter-based hash: its phase-local ``index``
    times the 32-bit golden ratio, xor the superstep, phase and cycle
    counters (each times an odd constant) and the top 32 bits of
    ``seed_key(seed)`` (:mod:`repro.util.intmath`'s splitmix64 fold of
    every 64-bit word of the seed), through MurmurHash3's 32-bit
    finaliser.
    For one cycle of one phase — every flit that can meet on an edge —
    both steps are bijections of the index, so ranks never tie there.
    The hash works in 32-bit lanes because the fast engine hashes every
    contended flit on every cycle.
    """

    name = "random"
    rank_mode = "dynamic"

    def __init__(self, seed: int = 0):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"RandomArbiter seed must be non-negative, got {seed}")
        self.seed = seed
        self._key = np.uint32(seed_key(seed) >> 32)

    def cache_key(self) -> tuple:
        return (self.name, self.seed)

    def priorities(self, step, phase, cycle, index, remaining):
        x = _u32(index) * _INDEX
        x ^= _u32(step) * _STEP
        x ^= _u32(phase) * _PHASE
        x ^= _u32(cycle) * _CYCLE
        x ^= self._key
        t = np.empty_like(x)
        x ^= np.right_shift(x, np.uint32(16), out=t)
        x *= _FMIX1
        x ^= np.right_shift(x, np.uint32(13), out=t)
        x *= _FMIX2
        x ^= np.right_shift(x, np.uint32(16), out=t)
        return x


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
