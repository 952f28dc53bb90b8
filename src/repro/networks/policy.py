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
  memoise.  Every superstep reads its own keyed PCG64 stream, the one
  ``np.random.default_rng((0xB11A2D1, seed, step))`` would give, but
  the streams of a whole trace are seeded at once (:func:`_draw_lows`)
  instead of through one generator object per superstep.

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

import functools

import numpy as np

from repro.networks.topology import Topology
from repro.util.intmath import ilog2

__all__ = [
    "RoutingPolicy",
    "DimensionOrderPolicy",
    "ValiantPolicy",
    "by_policy",
    "POLICIES",
]

Phase = tuple[np.ndarray, np.ndarray]

#: The leading entropy word of every Valiant draw's key.
_VALIANT_KEY = 0xB11A2D1

# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (pcg64.h).  The stream of a key is fixed by
# these; numpy documents SeedSequence and PCG64 streams as stable.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.cache
def _scratch_seed() -> np.random.SeedSequence:
    """Seeds the one scratch PCG64 of a draw (every key overwrites its
    state).  Made on first use: importing ``numpy.random`` costs more
    than a whole small route."""
    return np.random.SeedSequence(0)


def _int_words(n: int) -> list[int]:
    """SeedSequence's split of a non-negative int into uint32 words."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _hash_calls(init: int, mult: int, calls: list[int]) -> tuple:
    """Column vectors of the xor and multiply constants of hash calls.

    A SeedSequence hash constant starts at ``init`` and is multiplied by
    ``mult`` on every ``hashmix`` call; call ``m`` xors with its ``m``-th
    value and multiplies by the next one.
    """
    seq = [init]
    for _ in range(max(calls) + 1):
        seq.append(seq[-1] * mult & _M32)
    return (
        np.array([seq[m] for m in calls], dtype=np.uint32)[:, None],
        np.array([seq[m + 1] for m in calls], dtype=np.uint32)[:, None],
    )


#: The data-independent hash-call schedule: the pool's first four
#: calls, then mixing pool word i into each other word j (calls in j
#: order; row i takes a spare call and is restored), and the eight
#: calls generating the four uint64 state words.
_POOL_CALLS = _hash_calls(_INIT_A, _MULT_A, [0, 1, 2, 3])
_MIX_CALLS = [
    _hash_calls(
        _INIT_A, _MULT_A,
        [4 + 3 * i + j - (j > i) if j != i else 0 for j in range(4)],
    )
    for i in range(4)
]
_STATE_CALLS = _hash_calls(_INIT_B, _MULT_B, list(range(8)))


def _hashmix(values: np.ndarray, calls: tuple) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each row under its own hash call.

    A 1-d ``values`` is broadcast to one row per call.
    """
    xor, mul = calls
    out = values ^ xor
    out *= mul
    out ^= out >> _XSHIFT
    return out


def _mix(pool: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = _MIX_L * pool - _MIX_R * values
    out ^= out >> _XSHIFT
    return out


def _seed_state(words: list, keys: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for ``keys`` keys.

    ``words`` lists the keys' uint32 entropy words in order, each an int
    shared by every key or an array with one word per key.  The hash
    constant advances once per ``hashmix`` call whatever the data, so
    all keys run the same array operations.  Returns the ``(4, keys)``
    uint64 states.
    """
    pool = np.zeros((4, keys), dtype=np.uint32)
    for r, word in enumerate(words[:4]):
        pool[r] = word
    pool = _hashmix(pool, _POOL_CALLS)
    for i, calls in enumerate(_MIX_CALLS):
        own = pool[i]  # a view of the pool _mix leaves alone
        pool = _mix(pool, _hashmix(own, calls))
        pool[i] = own
    for w, word in enumerate(words[4:]):
        calls = _hash_calls(_INIT_A, _MULT_A, [16 + 4 * w + j for j in range(4)])
        pool = _mix(pool, _hashmix(np.asarray(word, dtype=np.uint32), calls))
    half = _hashmix(np.concatenate((pool, pool)), _STATE_CALLS).astype(np.uint64)
    return half[0::2] | half[1::2] << np.uint64(32)


def _draw_lows(
    seed: int, steps: np.ndarray, counts: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """Every superstep's ``integers(0, 2**shift, count)``, concatenated.

    Superstep ``steps[k]`` (ascending) draws ``counts[k] > 0`` values below
    ``2**shifts[k]`` (``1 <= shift <= 32``) from
    ``np.random.default_rng((0xB11A2D1, seed, steps[k]))``, bit for bit.
    The SeedSequence hash runs for all keys in one pass, PCG64's seeding
    step is done here, and one reused ``PCG64`` emits each superstep's
    raw words into one buffer.  For a power-of-two range ``integers``
    takes Lemire's method on 32-bit halves (low half first), which never
    rejects, so each value is a half shifted right by ``32 - shift``.
    """
    lead = [_VALIANT_KEY, *_int_words(seed)]
    state = _seed_state([*lead, steps.astype(np.uint32)], steps.size)
    if steps[-1] > _M32:  # an ordinal from 2**32 on is two entropy words
        (wide,) = (steps > _M32).nonzero()
        words = [*lead, steps[wide].astype(np.uint32), steps[wide] >> 32]
        state[:, wide] = _seed_state(words, wide.size)

    nwords = (counts + 1) // 2
    raw = np.empty(int(nwords.sum()), dtype=np.uint64)
    gen = np.random.PCG64(_scratch_seed())
    setting = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    at = 0
    for s0, s1, i0, i1, k in zip(*state.tolist(), nwords.tolist()):
        # PCG64's srandom: inc = 2*initseq + 1, state = (inc + initstate)*M + inc.
        inc = (i0 << 65 | i1 << 1 | 1) & _M128
        setting["state"] = {
            "state": ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128,
            "inc": inc,
        }
        gen.state = setting
        raw[at:at + k] = gen.random_raw(k)
        at += k

    # Little-endian halves put each word's low half first.  Superstep k
    # reads the first counts[k] halves of its words: an odd count leaves
    # the high half of its last word unused.
    halves = raw.astype("<u8", copy=False).view("<u4")
    unused = 2 * nwords - counts
    skip = np.repeat(np.cumsum(unused) - unused, counts)
    values = halves[skip + np.arange(skip.size)]
    return (values >> np.repeat((32 - shifts).astype(np.uint32), counts)).astype(
        np.int64
    )


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
    """

    name = "valiant"

    def __init__(self, seed: int = 0):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"ValiantPolicy seed must be non-negative, got {seed}")
        self.seed = seed

    def cache_key(self) -> tuple:
        return (self.name, self.seed)

    def _mids(
        self,
        topo: Topology,
        first: int,
        labels: np.ndarray,
        counts: np.ndarray,
        src: np.ndarray,
    ) -> np.ndarray:
        """Intermediates of the flat messages of consecutive supersteps.

        Superstep ``first + k`` (cluster label ``labels[k]``) owns the
        next ``counts[k]`` messages of ``src``.  A label that leaves no
        free low bits (shift 0) draws nothing: those messages stay put.
        """
        shifts = np.maximum(ilog2(topo.p) - labels, 0)
        draws = (counts > 0) & (shifts > 0)
        (steps,) = draws.nonzero()
        mid = src.astype(np.int64)
        if not steps.size:
            return mid
        n, shift = counts[steps], shifts[steps]
        low = _draw_lows(self.seed, steps + first, n, shift)
        moved = np.repeat(draws, counts)
        shift = np.repeat(shift, n)
        mid[moved] = (mid[moved] >> shift << shift) | low
        return mid

    def intermediates(
        self, topo: Topology, step: int, label: int, src: np.ndarray
    ) -> np.ndarray:
        """The random intermediate of every message (reproducible).

        One superstep's call of the whole-trace draw
        :meth:`phase_legs` makes; equal to
        :meth:`intermediates_reference` message for message.
        """
        if step < 0:
            raise ValueError(f"superstep ordinal must be non-negative, got {step}")
        return self._mids(
            topo, step, np.array([label]), np.array([src.size]), src
        )

    def intermediates_reference(
        self, topo: Topology, step: int, label: int, src: np.ndarray
    ) -> np.ndarray:
        """:meth:`intermediates` from one seeded generator (test oracle)."""
        shift = max(0, ilog2(topo.p) - label)
        if shift == 0:
            return src
        rng = np.random.default_rng((_VALIANT_KEY, self.seed, step))
        low = rng.integers(0, 1 << shift, size=src.size, dtype=np.int64)
        return (src >> shift << shift) | low

    def phase_legs(self, topo, labels, offsets, src, dst):
        # Every superstep's intermediates in one draw over the trace.
        mid = self._mids(topo, 0, labels, np.diff(offsets), src)
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
