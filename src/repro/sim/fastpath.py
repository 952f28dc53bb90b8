"""Event-driven fast engine for the cycle-accurate simulator.

Same observable results as the reference loop in
:mod:`repro.sim.engine` — cycles, max queue, delivered sets and
per-edge flit totals are bit-identical (a property-tested contract) —
from one fused cycle loop whose per-cycle cost follows the active
flits:

* **superstep and cross-cell fusion** — supersteps of a trace are
  dynamically independent (each runs on its own credit state), and so
  are whole simulations: every folded superstep of every cell gets its
  own namespaced edge range (a barrier-only one never loads a phase),
  so an entire experiment grid advances inside one loop
  (:func:`run_batch`), cutting total iterations to the *longest*
  superstep chain anywhere instead of the sum over cells;
* **sorted per-edge queues** — active flits live in one array kept
  sorted by ``(edge, static rank)``, so each edge's queue is a run of
  equal edges; a cycle serves the head of every run and merges back
  only the flits that moved.  Slot ids are emission-ordered per phase
  and phases never share a namespaced edge, so the slot id doubles as
  the static rank and each sort key decodes back to its flit;
* **per-cycle ranks** — arbiters whose rank changes every cycle
  (random and third-party ones) keep the queues in emission order, and
  a cycle with a queue longer than its edge's service makes one
  :meth:`~repro.sim.arbiter.Arbiter.priorities` call over the active
  flits; each such run then serves its lowest packed ``(rank,
  position)`` keys, found by a segmented minimum per served flit (no
  per-cycle sort).  Ranks are per-flit pure, so ranking many supersteps
  and cells in one call gives each flit the rank the per-phase
  reference gives it;
* **busy edges only** — credits and queue high-water marks are read and
  written on the edges that hold flits this cycle (an edge idle on the
  last cycle restarts from zero credit, as in the reference), and only
  edges some flit crosses get state at all.

Every cell runs in the fused loop: one loop per static
:attr:`~repro.sim.arbiter.Arbiter.rank_mode` (``"index"``,
``"remaining"``) and one per other arbiter identity
(:meth:`~repro.sim.arbiter.Arbiter.cache_key`), each holding at most
:data:`FLIT_BUDGET` flits.  A loop's set-up routes and flit-expands
each phase leg of a cell once and numbers the flits with whole-array
operations, so its cost follows the legs, not the supersteps.
"""

from __future__ import annotations

import numpy as np

from repro.sim.arbiter import Arbiter
from repro.util.caches import Counters

__all__ = [
    "FLIT_BUDGET",
    "expand_paths",
    "run_batch",
]

#: Flits per fused cycle loop: :func:`run_batch` closes a loop before a
#: cell (crossing messages x phase legs x flits per message) would push
#: it past this, and a larger cell runs alone.  On a 300-sim plan (five
#: sources x p 4-64 x six topologies x two policies, 2-CPU x86 host),
#: 2**17 peaked at 65 MB RSS against 113 MB for the old chunks of 32
#: cells, at a median wall time of 1.83 s against 1.91 s (ten
#: alternating runs); budgets from 2**15 to 2**19 ran within noise of
#: each other and peaked at 57-103 MB.  perfbench's sim-grid (96 small
#: cells) fits in one loop.
FLIT_BUDGET = 1 << 17

#: Rank modes the fused loop keeps incrementally sorted (no per-cycle
#: :meth:`~repro.sim.arbiter.Arbiter.priorities` call).
_STATIC_MODES = ("index", "remaining")

#: The ``sim_engine`` entry of ``repro.cache_stats()``: ``fused_runs``
#: counts fused cycle loops and ``serve_cycles`` the cycles they walked.
ENGINE_COUNTERS = Counters("sim_engine", "fused_runs", "serve_cycles")


def expand_paths(
    offsets: np.ndarray, edges: np.ndarray, flits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Expand message-level CSR paths into ``flits`` flits per message.

    Flit ``f`` of message ``i`` walks message ``i``'s hop sequence and
    takes emission index ``i * flits + f`` — message-major order, so
    FIFO arbitration keeps a message's flits together.
    """
    if flits == 1:
        return offsets, edges
    lengths = np.diff(offsets)
    rep = np.repeat(lengths, flits)
    new_offsets = np.zeros(rep.size + 1, dtype=np.int64)
    np.cumsum(rep, out=new_offsets[1:])
    starts = np.repeat(offsets[:-1], flits)
    hop = np.arange(new_offsets[-1], dtype=np.int64) - np.repeat(new_offsets[:-1], rep)
    return new_offsets, edges[np.repeat(starts, rep) + hop]


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted key arrays (timsort merges the two runs in O(n))."""
    out = np.concatenate((a, b))
    out.sort(kind="stable")
    return out


def _ranks32(prio: np.ndarray) -> np.ndarray:
    """Order-preserving unsigned ranks below ``2**32`` (packable beside
    a position); ranks of any other dtype are densified."""
    prio = np.asarray(prio)
    if prio.dtype.kind == "u" and prio.dtype.itemsize <= 4:
        return prio
    return np.unique(prio, return_inverse=True)[1].astype(np.uint32)


def _run_fused(
    cells: list,
    arbiter: Arbiter,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """All supersteps of every cell in one loop over namespaced edges.

    ``cells`` is a list of ``(topo, caps, legs, folded, flits)``
    simulations under ``arbiter`` (any arbiter of the same static
    :attr:`~repro.sim.arbiter.Arbiter.rank_mode` gives the same
    result).  Cells are dynamically independent — each superstep runs
    on its own namespaced edge range — so a whole experiment grid
    advances inside a single cycle loop and costs its *longest*
    superstep chain instead of the sum over cells.  Set-up costs one
    ``route_paths`` call and a few whole-array passes per phase leg of
    a cell; a cycle reads and writes only the edges that hold flits, so
    its cost follows the active flits.  Returns per-cell ``(cycles,
    max_queue, edge_flits)`` aligned with ``cells``.
    """
    # Superstep g (every folded superstep, numbered across cells) owns
    # the namespaced edges g*Emax .. g*Emax + E - 1; an empty one never
    # loads a phase, so it reports zeros.
    Emax = max((caps.size for _, caps, _, _, _ in cells), default=0)
    nsteps = [folded.num_supersteps for _, _, _, folded, _ in cells]

    # Route + expand every phase leg of every cell up front (pure
    # functions of the batch — the reference does the same work lazily),
    # one leg at a time.  Slots are numbered in (superstep, phase) order:
    # non-empty phase j owns the flit slots pb[j]..pb[j+1], belongs to
    # superstep pg[j] and is its routing phase pph[j]; a superstep's
    # phases are consecutive in j.  Edges stay in leg order: ``end``
    # points each slot at its own path.
    size_parts, pg_parts, pph_parts = [], [], []
    len_parts, end_parts, edge_parts = [], [], []
    ebase = 0
    g0 = 0
    for (topo, caps, legs, folded, flits), S in zip(cells, nsteps):
        owner = folded.superstep_index()
        L = len(legs)
        counts = np.empty((L, S), dtype=np.int64)  # flits per (phase, step)
        lens, ends = [], []
        for ph, (ph_src, ph_dst) in enumerate(legs):
            cross = ph_src != ph_dst  # policies may add self-messages
            step = owner[cross]
            off, hops = topo.route_paths(ph_src[cross], ph_dst[cross])
            hop_counts = np.diff(off)
            if not hop_counts.all():
                # Slot k - pb[j] must be flit k's index in its phase.
                raise ValueError(
                    f"{topo.name}: zero-hop path between distinct processors"
                )
            hops = hops + np.repeat((g0 + step) * Emax, hop_counts)
            off, hops = expand_paths(off, hops, flits)
            counts[ph] = flits * np.bincount(step, minlength=S)
            lens.append(np.diff(off).astype(np.int32))
            ends.append(off[1:] + np.int64(ebase))
            edge_parts.append(hops)
            ebase += hops.size
        # Flits of block (step, phase), in (superstep, phase) order.
        sizes = counts.T.ravel()
        (nz,) = sizes.nonzero()
        lens, ends = np.concatenate(lens), np.concatenate(ends)
        if L > 1:
            # Legs are superstep-ordered, so block (step, phase) is one
            # range of leg ``phase``: gather the ranges in slot order.
            first = np.cumsum(counts) - counts.ravel()  # in leg order
            first = first.reshape(L, S).T.ravel()[nz]
            n = sizes[nz]
            order = np.repeat(first - (np.cumsum(n) - n), n)
            order += np.arange(order.size)
            lens, ends = lens[order], ends[order]
        size_parts.append(sizes[nz])
        pg_parts.append(g0 + nz // L)
        pph_parts.append(nz % L)
        len_parts.append(lens)
        end_parts.append(ends)
        g0 += S

    G = g0
    cycles = np.zeros(G, dtype=np.int64)
    max_queue = np.zeros(G, dtype=np.int64)
    ecell = np.cumsum([0] + [caps.size for _, caps, _, _, _ in cells])
    edge_flits = np.zeros(int(ecell[-1]), dtype=np.int64)
    pb_a = np.cumsum(np.concatenate([[0]] + size_parts))
    base = int(pb_a[-1])
    static = arbiter.rank_mode in _STATIC_MODES
    t = 0
    if base:
        # Only edges some flit crosses carry state: number them densely,
        # in namespaced order, so sort keys and per-edge arrays stay
        # proportional to the flit hops.  Dense edge u belongs to
        # superstep g_u[u] and is edge e_u[u] of the cells' joint edges.
        edges = np.concatenate(edge_parts)
        del edge_parts  # copied: free the parts before the cycle loop
        uniq = np.unique(edges)
        edges = uniq.searchsorted(edges)
        U = uniq.size
        g_u, e_u = np.divmod(uniq, Emax)
        e_u += ecell[np.repeat(np.arange(len(cells)), nsteps)[g_u]]
        caps_u = np.concatenate([caps for _, caps, _, _, _ in cells])[e_u]
        rem = np.concatenate(len_parts)  # hops left to go
        end = np.concatenate(end_parts)  # one past each flit's last hop
        del len_parts, end_parts
        Lmax = int(rem.max())
        pg_a = np.concatenate(pg_parts + [[-1]])  # -1: no next phase
        sstep = np.repeat(pg_a[:-1], np.diff(pb_a))
        remaining_mode = arbiter.rank_mode == "remaining"
        if not static:
            # Per-cycle ranking reads each flit's superstep ordinal,
            # routing phase, cycle in phase and index in phase.
            gstep = np.concatenate(
                [np.arange(n, dtype=np.int32) for n in nsteps]
            )
            pph_a = np.concatenate(pph_parts).astype(np.int32)
            gph = np.zeros(G, dtype=np.int32)  # running phase's routing phase
            gbase = np.zeros(G, dtype=np.int64)  # running phase's first slot
            t0 = np.zeros(G, dtype=np.int32)  # running phase's first cycle
        #: Namespaced edges never mix phases (phases of a superstep run
        #: back to back; supersteps own disjoint edge ranges) and slot ids
        #: are assigned in emission order per phase, so the slot id *is*
        #: a valid static rank — and every sort key decodes back to its
        #: flit as ``slot = key & (KB - 1)``.  Key fields are powers of
        #: two wide, so shifts and masks decode them.
        SB = int(base).bit_length()
        S1 = SB + int(Lmax).bit_length() if remaining_mode else SB
        KB = np.int64(1 << SB)
        K1 = np.int64(1 << S1)
        if U * int(K1) >= 2**62:  # pragma: no cover
            raise OverflowError("fast-engine sort keys would overflow int64")
        ar = np.arange(base, dtype=np.int64)
        qhigh = np.zeros(U, dtype=np.int64)  # per-edge queue high-water mark
        credits = np.zeros(U)
        left = np.zeros(G, dtype=np.int64)  # running phase's flits in flight
        cur = np.zeros(G, dtype=np.int64)  # running phase of each superstep

        def load(js: np.ndarray, start: int) -> np.ndarray:
            """Start phases ``js`` (one per superstep) on cycle ``start``:
            their sorted keys."""
            n = pb_a[js + 1] - pb_a[js]
            left[pg_a[js]] = n
            cur[pg_a[js]] = js
            if not static:
                gph[pg_a[js]] = pph_a[js]
                gbase[pg_a[js]] = pb_a[js]
                t0[pg_a[js]] = start
            slots = np.repeat(pb_a[js] - (np.cumsum(n) - n), n) + ar[: n.sum()]
            keys = edges[end[slots] - rem[slots]] * K1 + slots
            if remaining_mode:
                keys += (Lmax - rem[slots]) * KB
            keys.sort()
            return keys

        # Cycle 0 starts the first phase of every superstep.
        skey = load(np.flatnonzero(np.diff(pg_a[:-1], prepend=-1)), 0)
        prev = np.empty(0, dtype=np.int64)  # edges busy on the last cycle
        while skey.size:
            # Each edge's queue is a run of equal edges in the sorted keys.
            A = skey.size
            ge = skey >> S1
            bound = np.ones(A + 1, dtype=bool)
            np.not_equal(ge[1:], ge[:-1], out=bound[1:A])
            bound = bound.nonzero()[0]
            starts = bound[:-1]
            queue = bound[1:] - starts
            seg = ge[starts]
            qhigh[seg] = np.maximum(qhigh[seg], queue)
            # The reference's credit float ops on the busy edges alone.
            # ``credits`` is zero off the edges busy on the last cycle, so
            # an edge keeps its credit only while it stays busy.
            credit = credits[seg] + caps_u[seg]
            credits[prev] = 0.0
            avail = np.floor(credit).astype(np.int64)
            served = np.minimum(queue, avail)
            credit -= served
            np.remainder(credit, 1.0, out=credit, where=avail > queue)
            credits[seg] = credit
            prev = seg
            if static:
                # Winners are the head of each edge's run, survivors the
                # tail.
                win = ar[:A] < np.repeat(starts + served, queue)
            else:
                # An uncontended run serves all its flits.  A contended
                # run serves its ``served`` lowest (rank, position) keys;
                # runs are in emission order, so rank ties break by
                # emission index as in the reference.
                hot = served < queue
                win = np.repeat(~hot, queue)
                if hot.any():
                    g = g_u[seg]
                    slot = skey & (KB - 1)
                    prio = arbiter.priorities(
                        np.repeat(gstep[g], queue), np.repeat(gph[g], queue),
                        np.repeat(t - t0[g], queue),
                        slot - np.repeat(gbase[g], queue), rem[slot],
                    )
                    key = np.left_shift(_ranks32(prio), 32, dtype=np.uint64)
                    key |= ar[:A].view(np.uint64)
                    need = served * hot
                    for k in range(int(need.max())):
                        low = np.minimum.reduceat(key, starts)[need > k]
                        low &= np.uint64(0xFFFFFFFF)
                        win[low] = True
                        key[low] = np.uint64(2**64 - 1)
            wkey = skey[win]
            skey = skey[~win]
            rank = wkey & (K1 - 1)
            wid = rank & (KB - 1) if remaining_mode else rank
            remw = rem[wid] - 1
            rem[wid] = remw
            fin = remw == 0
            nfin = np.count_nonzero(fin)
            if nfin < wid.size:
                # The key already encodes the rank: FIFO ranks are static
                # and farthest-to-go drifts by exactly KB per hop.
                hop = ~fin
                nkey = edges[end[wid[hop]] - remw[hop]] * K1 + rank[hop]
                if remaining_mode:
                    nkey += KB
                nkey.sort()
                skey = _merge(skey, nkey)
            if nfin:
                fg = sstep[wid[fin]]
                np.subtract.at(left, fg, 1)
                gone = left[fg] == 0
                if np.count_nonzero(gone):
                    drained = np.unique(fg[gone])
                    # A drained phase's busy edges are its finished flits'
                    # edges; the next phase starts on zero credit there.
                    credits[(wkey[fin] >> S1)[gone]] = 0.0
                    nxt = cur[drained] + 1
                    more = pg_a[nxt] == drained
                    # Phases run back to back, so a superstep's cycle
                    # count is the global cycle its last phase drains at.
                    cycles[drained[~more]] = t + 1
                    if np.count_nonzero(more):
                        skey = _merge(skey, load(nxt[more], t + 1))
            t += 1

        # Fold the per-edge arrays back onto supersteps and cell edges.
        np.maximum.at(max_queue, g_u, qhigh)
        np.add.at(edge_flits, e_u, np.bincount(edges))
    ENGINE_COUNTERS.add(fused_runs=1, serve_cycles=t)

    gb = np.cumsum([0] + nsteps)
    return [
        (cycles[gb[c]:gb[c + 1]], max_queue[gb[c]:gb[c + 1]],
         edge_flits[ecell[c]:ecell[c + 1]])
        for c in range(len(cells))
    ]


def run_batch(
    cells: list,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Fast-engine execution of many independent simulations at once.

    ``cells`` is a list of ``(topo, caps, legs, arbiter, folded,
    flits)`` — one entry per (trace, topology, policy, arbiter) cell,
    ``folded`` its :class:`~repro.machine.trace.Trace` folded onto
    ``topo.p`` and ``legs`` its
    policy's phase legs over ``folded``
    (:func:`~repro.networks.routing.fold_legs`, drawn once per (trace,
    p, policy) and shared with the analytic router).  Cells fuse per
    static rank mode and per other arbiter's
    :meth:`~repro.sim.arbiter.Arbiter.cache_key`, in order, into cycle
    loops of at most :data:`FLIT_BUDGET` flits (a larger cell runs
    alone); each loop then costs its longest superstep chain, not the
    sum.  Results are bit-identical to running each cell alone.
    Returns per-cell ``(cycles, max_queue, edge_flits)`` aligned with
    ``cells``, with one entry per folded superstep (zeros on
    barrier-only ones).
    """
    results: list = [None] * len(cells)
    groups: dict = {}
    for i, (_, _, _, arbiter, _, _) in enumerate(cells):
        mode = arbiter.rank_mode
        group = mode if mode in _STATIC_MODES else arbiter.cache_key()
        groups.setdefault(group, []).append(i)

    def fuse(idxs: list) -> None:
        fused = [
            (cells[i][0], cells[i][1], cells[i][2], cells[i][4], cells[i][5])
            for i in idxs
        ]
        for i, res in zip(idxs, _run_fused(fused, cells[idxs[0]][3])):
            results[i] = res

    for group in groups.values():
        chunk: list = []
        load = 0
        for i in group:
            # Crossing messages (a fold keeps no self-message) x phase
            # legs x flits per message, counted before routing.
            _, _, legs, _, folded, flits = cells[i]
            n = folded.total_messages * len(legs) * flits
            if chunk and load + n > FLIT_BUDGET:
                fuse(chunk)
                chunk, load = [], 0
            chunk.append(i)
            load += n
        fuse(chunk)
    return results
