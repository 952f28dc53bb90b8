"""Event-driven fast engine for the cycle-accurate simulator.

Same observable results as the reference loop in
:mod:`repro.sim.engine` — cycles, max queue, delivered sets and
per-edge flit totals are bit-identical (a property-tested contract) —
from one fused cycle loop whose per-cycle cost follows the active
flits:

* **superstep and cross-cell fusion** — supersteps of a trace are
  dynamically independent (each runs on its own credit state), and so
  are whole simulations: every superstep of every cell gets its own
  namespaced edge range, so an entire experiment grid advances inside
  one loop (:func:`run_batch`), cutting total iterations to the
  *longest* superstep chain anywhere instead of the sum over cells;
* **sorted per-edge queues** — active flits live in one array kept
  sorted by ``(edge, arbiter rank)``, so each edge's queue is a run of
  equal edges; a cycle serves the head of every run and merges back
  only the flits that moved.  Slot ids are emission-ordered per phase
  and phases never share a namespaced edge, so the slot id doubles as
  the static rank and each sort key decodes back to its flit;
* **busy edges only** — credits and queue high-water marks are read and
  written on the edges that hold flits this cycle (an edge idle on the
  last cycle restarts from zero credit, as in the reference), and only
  edges some flit crosses get state at all.

Arbiters whose rank is a static function of the flit
(:attr:`~repro.sim.arbiter.Arbiter.rank_mode` ``"index"`` or
``"remaining"``) use the fused loop; ``"dynamic"`` arbiters (random and
third-party) run each phase through the reference per-cycle rank
computation, accelerated by a quiescent skip over stretches where no
edge is contended.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.sim.arbiter import Arbiter

__all__ = [
    "engine_stats",
    "expand_paths",
    "reset_engine_stats",
    "run_batch",
]

#: Quiescent-skip lookahead window: starts small, doubles while fully
#: successful, resets on the first contended cycle found.
_WINDOW_MIN = 4
_WINDOW_MAX = 64

_stats_lock = threading.Lock()


def _zero_stats() -> dict[str, int]:
    return {
        "fused_runs": 0,
        "dynamic_phases": 0,
        "serve_cycles": 0,
        "skips": 0,
        "skipped_cycles": 0,
    }


_stats = _zero_stats()


def engine_stats() -> dict[str, int]:
    """Counters of the fast engine's paths.

    ``fused_runs`` counts fused-loop calls and ``serve_cycles`` the
    cycles both paths walked one by one; ``dynamic_phases``, ``skips``
    and ``skipped_cycles`` count only the dynamic-arbiter path (the
    fused loop has no skip).
    """
    with _stats_lock:
        return dict(_stats)


def reset_engine_stats() -> None:
    """Zero the fast-engine counters (tests and benchmarks)."""
    with _stats_lock:
        _stats.update(_zero_stats())


def _bump(**deltas: int) -> None:
    with _stats_lock:
        for name, delta in deltas.items():
            _stats[name] += delta


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


def _quiescent_skip(
    edges_buf: np.ndarray,
    heads: np.ndarray,
    rem: np.ndarray,
    caps: np.ndarray,
    fcaps: np.ndarray,
    credits: np.ndarray,
    eflits: np.ndarray,
    window: int,
) -> tuple[int, np.ndarray]:
    """Advance up to ``window`` fully-quiescent cycles in one event.

    ``heads[i]`` indexes flit ``i``'s current hop in ``edges_buf`` and
    ``rem[i]`` its remaining hops.  A cycle is skippable when every
    edge's demand fits its guaranteed floor service, which makes the
    outcome arbiter-independent: everybody advances.  Credit dynamics
    are replayed per skipped cycle with the reference's exact float
    operations, so fractional capacities stay bit-identical.  Returns
    the number of cycles skipped and the per-edge max queue observed.
    """
    E = caps.size
    wmax = np.zeros(E, dtype=np.int64)
    k = 0
    for j in range(window):
        valid = rem > j
        cnt = np.bincount(edges_buf[heads[valid] + j], minlength=E)
        if (cnt > fcaps).any():
            break
        busy = cnt > 0
        credits[busy] += caps[busy]
        credits[~busy] = 0.0
        avail = np.floor(credits).astype(np.int64)
        credits -= cnt
        spare = busy & (avail > cnt)
        credits[spare] %= 1.0
        eflits += cnt
        np.maximum(wmax, cnt, out=wmax)
        k += 1
    return k, wmax


def _run_phase_dynamic(
    caps: np.ndarray,
    fcaps: np.ndarray,
    offsets: np.ndarray,
    edges: np.ndarray,
    arbiter: Arbiter,
    step: int,
    phase: int,
    edge_flits: np.ndarray,
) -> tuple[int, int]:
    """Reference per-cycle loop plus the quiescent skip (dynamic ranks).

    Used for arbiters whose priorities are an arbitrary per-cycle
    function (``rank_mode == "dynamic"``): ordering must be recomputed
    every contended cycle, but fully-quiescent stretches advance in
    windows because arbitration cannot change who crosses there.
    """
    E = caps.size
    lengths = np.diff(offsets)
    pos = np.zeros(lengths.size, dtype=np.int64)
    active = np.flatnonzero(lengths > 0)
    credits = np.zeros(E)
    cycles = 0
    max_queue = 0
    window = _WINDOW_MIN
    skips = 0
    skipped = 0
    served_cycles = 0
    while active.size:
        heads = offsets[active] + pos[active]
        want = edges[heads]
        queue = np.bincount(want, minlength=E)
        max_queue = max(max_queue, int(queue.max()))
        if not (queue > fcaps).any():
            rem = lengths[active] - pos[active]
            W = min(window, int(rem.max()))
            k, wmax = _quiescent_skip(
                edges, heads, rem, caps, fcaps, credits, edge_flits, W
            )
            max_queue = max(max_queue, int(wmax.max()))
            pos[active] += np.minimum(k, rem)
            active = active[pos[active] < lengths[active]]
            cycles += k
            skips += 1
            skipped += k
            window = min(window * 2, _WINDOW_MAX) if k == W else _WINDOW_MIN
            continue
        busy = queue > 0
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
        served_cycles += 1
    _bump(skips=skips, skipped_cycles=skipped, serve_cycles=served_cycles)
    return cycles, max_queue


def _phase_paths(topo, policy, steps: list, flits: int):
    """Routed, flit-expanded CSR paths of every phase that moves messages.

    Yields ``(i, phase, step, offsets, edges)`` superstep by superstep
    and phase by phase, ``i`` indexing ``steps``.  The cell's legs come
    from one :meth:`~repro.networks.policy.RoutingPolicy.phase_legs`
    call over its supersteps (``step`` is the superstep's ordinal in
    the folded trace; ordinals absent from ``steps`` are empty), and
    each leg is routed by one ``route_paths`` call and flit-expanded
    once, then cut back into per-superstep blocks.
    """
    if not steps:
        return
    ords = np.array([step for step, _, _, _ in steps], dtype=np.int64)
    counts = np.array([src.size for _, _, src, _ in steps], dtype=np.int64)
    labels = np.zeros(int(ords[-1]) + 1, dtype=np.int64)
    labels[ords] = [label for _, label, _, _ in steps]
    offsets = np.zeros(labels.size + 1, dtype=np.int64)
    offsets[ords + 1] = counts
    np.cumsum(offsets, out=offsets)
    legs = policy.phase_legs(
        topo, labels, offsets,
        np.concatenate([src for _, _, src, _ in steps]),
        np.concatenate([dst for _, _, _, dst in steps]),
    )
    owner = np.repeat(np.arange(len(steps)), counts)
    blocks = []
    for ph_src, ph_dst in legs:
        cross = ph_src != ph_dst  # policies may add self-messages
        poff, pedges = expand_paths(
            *topo.route_paths(ph_src[cross], ph_dst[cross]), flits
        )
        # Flit range of each superstep's crossing messages.
        bounds = flits * np.searchsorted(owner[cross], np.arange(len(steps) + 1))
        blocks.append((poff, pedges, bounds.tolist()))
    for i, step in enumerate(ords.tolist()):
        for ph, (poff, pedges, bounds) in enumerate(blocks):
            lo, hi = bounds[i], bounds[i + 1]
            if hi > lo:
                e0, e1 = poff[lo], poff[hi]
                yield i, ph, step, poff[lo:hi + 1] - e0, pedges[e0:e1]


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted key arrays (timsort merges the two runs in O(n))."""
    out = np.concatenate((a, b))
    out.sort(kind="stable")
    return out


def _run_fused(
    cells: list,
    remaining_mode: bool,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """All supersteps of every cell in one loop over namespaced edges.

    ``cells`` is a list of ``(topo, caps, policy, steps, flits)``
    simulations sharing one static arbiter rank mode.  Cells are
    dynamically independent — each superstep runs on its own namespaced
    edge range — so a whole experiment grid advances inside a single
    cycle loop and costs its *longest* superstep chain instead of the
    sum over cells.  A cycle reads and writes only the edges that hold
    flits, so its cost follows the active flits.  Returns per-cell
    ``(cycles, max_queue, edge_flits)`` aligned with ``cells``.
    """
    # Superstep g (numbered across cells) owns the namespaced edges
    # g*Emax .. g*Emax + E - 1.
    Emax = max((caps.size for _, caps, _, _, _ in cells), default=0)
    nsteps = [len(steps) for _, _, _, steps, _ in cells]

    # Route + expand every phase of every superstep up front (pure
    # functions of the batch — the reference does the same work lazily).
    # Non-empty phase j owns the flit slots pb[j]..pb[j+1] and belongs
    # to superstep pg[j]; a superstep's phases are consecutive in j.
    pb, pg = [0], []
    len_parts, off_parts, edge_parts = [], [], []
    ebase = 0
    Lmax = 1
    g0 = 0
    for topo, caps, policy, steps, flits in cells:
        for i, _, _, poff, pedges in _phase_paths(topo, policy, steps, flits):
            lengths = np.diff(poff).astype(np.int64)
            keep = np.flatnonzero(lengths > 0)
            if keep.size == 0:
                continue
            len_parts.append(lengths[keep])
            off_parts.append(poff[keep].astype(np.int64) + ebase)
            edge_parts.append(pedges.astype(np.int64) + (g0 + i) * Emax)
            pb.append(pb[-1] + keep.size)
            pg.append(g0 + i)
            ebase += int(pedges.size)
            Lmax = max(Lmax, int(lengths[keep].max()))
        g0 += len(steps)

    G = g0
    cycles = np.zeros(G, dtype=np.int64)
    max_queue = np.zeros(G, dtype=np.int64)
    ecell = np.cumsum([0] + [caps.size for _, caps, _, _, _ in cells])
    edge_flits = np.zeros(int(ecell[-1]), dtype=np.int64)
    base = pb[-1]
    t = 0
    if base:
        # Only edges some flit crosses carry state: number them densely,
        # in namespaced order, so sort keys and per-edge arrays stay
        # proportional to the flit hops.  Dense edge u belongs to
        # superstep g_u[u] and is edge e_u[u] of the cells' joint edges.
        edges = np.concatenate(edge_parts)
        uniq = np.unique(edges)
        edges = uniq.searchsorted(edges)
        U = uniq.size
        g_u, e_u = np.divmod(uniq, Emax)
        e_u += ecell[np.repeat(np.arange(len(cells)), nsteps)[g_u]]
        caps_u = np.concatenate([caps for _, caps, _, _, _ in cells])[e_u]
        length = np.concatenate(len_parts)
        off = np.concatenate(off_parts)
        pb_a = np.array(pb, dtype=np.int64)
        pg_a = np.array(pg + [-1], dtype=np.int64)  # -1: no next phase
        sstep = np.repeat(pg_a[:-1], np.diff(pb_a))
        #: Namespaced edges never mix phases (phases of a superstep run
        #: back to back; supersteps own disjoint edge ranges) and slot ids
        #: are assigned in emission order per phase, so the slot id *is*
        #: a valid static rank — and every sort key decodes back to its
        #: flit as ``slot = key % KB``.
        KB = np.int64(base + 1)
        K1 = np.int64(Lmax + 1) * KB if remaining_mode else KB
        if U * int(K1) >= 2**62:  # pragma: no cover
            raise OverflowError("fast-engine sort keys would overflow int64")
        pos = np.zeros(base, dtype=np.int64)
        ar = np.arange(base, dtype=np.int64)
        qhigh = np.zeros(U, dtype=np.int64)  # per-edge queue high-water mark
        credits = np.zeros(U)
        left = np.zeros(G, dtype=np.int64)  # running phase's flits in flight
        cur = np.zeros(G, dtype=np.int64)  # running phase of each superstep

        def load(js: np.ndarray) -> np.ndarray:
            """Start phases ``js`` (one per superstep): their sorted keys."""
            n = pb_a[js + 1] - pb_a[js]
            left[pg_a[js]] = n
            cur[pg_a[js]] = js
            slots = np.repeat(pb_a[js] - (np.cumsum(n) - n), n) + ar[: n.sum()]
            keys = edges[off[slots]] * K1 + slots
            if remaining_mode:
                keys += (Lmax - length[slots]) * KB
            keys.sort()
            return keys

        # Cycle 0 starts the first phase of every superstep.
        skey = load(np.flatnonzero(np.diff(pg_a[:-1], prepend=-1)))
        prev = np.empty(0, dtype=np.int64)  # edges busy on the last cycle
        while skey.size:
            # Each edge's queue is a run of equal edges in the sorted keys.
            A = skey.size
            ge = skey // K1
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
            # Winners are the head of each edge's run, survivors the tail.
            win = ar[:A] < np.repeat(starts + served, queue)
            wkey = skey[win]
            skey = skey[~win]
            rank = wkey % K1
            wid = rank % KB if remaining_mode else rank
            posw = pos[wid] + 1
            pos[wid] = posw
            fin = posw == length[wid]
            nfin = np.count_nonzero(fin)
            if nfin < wid.size:
                # The key already encodes the rank: FIFO ranks are static
                # and farthest-to-go drifts by exactly KB per hop.
                hop = ~fin
                nkey = edges[off[wid[hop]] + posw[hop]] * K1 + rank[hop]
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
                    credits[(wkey[fin] // K1)[gone]] = 0.0
                    nxt = cur[drained] + 1
                    more = pg_a[nxt] == drained
                    # Phases run back to back, so a superstep's cycle
                    # count is the global cycle its last phase drains at.
                    cycles[drained[~more]] = t + 1
                    if np.count_nonzero(more):
                        skey = _merge(skey, load(nxt[more]))
            t += 1

        # Fold the per-edge arrays back onto supersteps and cell edges.
        np.maximum.at(max_queue, g_u, qhigh)
        np.add.at(edge_flits, e_u, np.bincount(edges))
    _bump(fused_runs=1, serve_cycles=t)

    gb = np.cumsum([0] + nsteps)
    return [
        (cycles[gb[c]:gb[c + 1]], max_queue[gb[c]:gb[c + 1]],
         edge_flits[ecell[c]:ecell[c + 1]])
        for c in range(len(cells))
    ]


def _run_dynamic(
    topo, caps: np.ndarray, policy, arbiter: Arbiter, steps: list, flits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One dynamic-rank cell, phase by phase through :func:`_run_phase_dynamic`."""
    fcaps = np.floor(caps).astype(np.int64)
    cycles = np.zeros(len(steps), dtype=np.int64)
    max_queue = np.zeros(len(steps), dtype=np.int64)
    edge_flits = np.zeros(caps.size, dtype=np.int64)
    phases_run = 0
    for i, ph, step, poff, pedges in _phase_paths(topo, policy, steps, flits):
        c, q = _run_phase_dynamic(
            caps, fcaps, poff, pedges, arbiter, step, ph, edge_flits
        )
        cycles[i] += c
        max_queue[i] = max(max_queue[i], q)
        phases_run += 1
    _bump(dynamic_phases=phases_run)
    return cycles, max_queue, edge_flits


def run_batch(
    cells: list,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Fast-engine execution of many independent simulations at once.

    ``cells`` is a list of ``(topo, caps, policy, arbiter, steps,
    flits)`` — one entry per (trace, topology, policy, arbiter) cell,
    ``steps`` its non-empty supersteps as ``(step, label, src, dst)``
    batches in ascending superstep ordinal ``step``.  Each cell's
    phase legs come from one ``policy.phase_legs`` call, and each leg
    is routed and flit-expanded once (:func:`_phase_paths`), so set-up
    costs no generator or ``route_paths`` call per superstep.
    Static-rank cells fuse into one cycle loop per rank mode
    (the whole grid then costs its longest superstep chain, not the
    sum); dynamic-rank cells run phase by phase through
    :func:`_run_phase_dynamic`.  Results are bit-identical to running
    each cell alone.  Returns per-cell ``(cycles, max_queue,
    edge_flits)`` aligned with ``cells``.
    """
    results: list = [None] * len(cells)
    by_mode: dict[str, list[int]] = {}
    for i, (topo, caps, policy, arbiter, steps, flits) in enumerate(cells):
        if arbiter.rank_mode == "dynamic":
            results[i] = _run_dynamic(topo, caps, policy, arbiter, steps, flits)
        else:
            by_mode.setdefault(arbiter.rank_mode, []).append(i)
    for mode, idxs in by_mode.items():
        fused = [
            (cells[i][0], cells[i][1], cells[i][2], cells[i][4], cells[i][5])
            for i in idxs
        ]
        for i, res in zip(idxs, _run_fused(fused, mode == "remaining")):
            results[i] = res
    return results
