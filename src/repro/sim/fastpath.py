"""Event-driven fast engine for the cycle-accurate simulator.

Same observable results as the reference loop in
:mod:`repro.sim.engine` — cycles, max queue, delivered sets and
per-edge flit totals are bit-identical (a property-tested contract) —
but organised around three optimizations:

* **superstep and cross-cell fusion** — supersteps of a trace are
  dynamically independent (each runs on its own credit state), and so
  are whole simulations: every superstep of every cell gets its own
  namespaced edge range, so an entire experiment grid advances inside
  one loop (:func:`run_batch`), cutting total iterations to the
  *longest* superstep chain anywhere instead of the sum over cells;
* **incremental per-edge queues** — active flits live in one array kept
  sorted by ``(edge, arbiter rank)``; a cycle serves the head of every
  queue segment and re-inserts only the flits that moved
  (counting-sort delta), instead of re-lexsorting the whole active set
  every cycle.  Slot ids are emission-ordered per phase and phases
  never share a namespaced edge, so the slot id doubles as the static
  rank and each sort key decodes back to its flit — no parallel id
  array rides along;
* **event-driven quiescent skip** — when no edge holds more flits than
  its guaranteed floor service (``queue <= floor(caps)`` everywhere),
  every flit is certain to advance, so the engine walks whole hop
  windows at once and jumps to the next cycle where contention (or a
  phase boundary) can occur.

Arbiters whose rank is a static function of the flit
(:attr:`~repro.sim.arbiter.Arbiter.rank_mode` ``"index"`` or
``"remaining"``) use the fused sorted-array path; ``"dynamic"``
arbiters (random and third-party) fall back to the reference per-cycle
rank computation, still accelerated by the quiescent skip.
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
    "run_trace",
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
    """Counters of the fast engine's paths (skips, fused runs, ...)."""
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


class _PhaseChunk:
    """One routed (and flit-expanded) phase batch of one superstep."""

    __slots__ = ("slots", "nf")

    def __init__(self, slots: np.ndarray):
        self.slots = slots
        self.nf = int(slots.size)


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
    sum over cells.  Returns per-cell ``(cycles, max_queue,
    edge_flits)`` aligned with ``cells``.
    """
    # Global superstep index space: cell c owns supersteps
    # gb[c]..gb[c+1], and superstep g owns edges enb[g]..enb[g+1].
    n_cells = len(cells)
    gb = np.zeros(n_cells + 1, dtype=np.int64)
    e_sizes = []
    for c_i, (topo, caps, policy, steps, flits) in enumerate(cells):
        gb[c_i + 1] = gb[c_i] + len(steps)
        e_sizes.extend([caps.size] * len(steps))
    G = int(gb[-1])
    enb = np.zeros(G + 1, dtype=np.int64)
    np.cumsum(e_sizes, out=enb[1:])
    Etot = int(enb[-1])
    caps_ns = (
        np.concatenate([np.tile(caps, len(steps)) for _, caps, _, steps, _ in cells])
        if Etot
        else np.zeros(0)
    )
    fcaps_ns = np.floor(caps_ns).astype(np.int64)

    # Route + expand every phase of every superstep up front (pure
    # functions of the batch — the reference does the same work lazily),
    # assigning each flit a global slot so per-flit state never grows.
    chunk_lists: list[list[_PhaseChunk]] = []
    pos_parts, len_parts, off_parts, edge_parts = [], [], [], []
    base = 0
    ebase = 0
    Lmax = 1
    g = 0
    for topo, caps, policy, steps, flits in cells:
        for step, label, src, dst in steps:
            chunks = []
            for ph_src, ph_dst in policy.phases(topo, step, label, src, dst):
                cross = ph_src != ph_dst  # policies may add self-messages
                ph_src, ph_dst = ph_src[cross], ph_dst[cross]
                if ph_src.size == 0:
                    chunks.append(_PhaseChunk(np.empty(0, dtype=np.int64)))
                    continue
                poff, pedges = topo.route_paths(ph_src, ph_dst)
                poff, pedges = expand_paths(poff, pedges, flits)
                lengths = np.diff(poff).astype(np.int64)
                keep = np.flatnonzero(lengths > 0)
                nf = keep.size
                chunks.append(
                    _PhaseChunk(np.arange(base, base + nf, dtype=np.int64))
                )
                if nf == 0:
                    continue
                pos_parts.append(np.zeros(nf, dtype=np.int64))
                len_parts.append(lengths[keep])
                off_parts.append(poff[keep].astype(np.int64) + ebase)
                edge_parts.append(pedges.astype(np.int64) + enb[g])
                base += nf
                ebase += int(pedges.size)
                Lmax = max(Lmax, int(lengths[keep].max()))
            chunk_lists.append(chunks)
            g += 1

    cycles_arr = np.zeros(G, dtype=np.int64)
    qhigh = np.zeros(Etot, dtype=np.int64)
    eflits_ns = np.zeros(Etot, dtype=np.int64)

    def _split() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Carve the global superstep arrays back into per-cell results."""
        maxq_g = np.zeros(G, dtype=np.int64)
        if Etot:
            idx = np.minimum(enb[:-1], Etot - 1)
            maxq_g = np.maximum.reduceat(qhigh, idx)
            maxq_g[enb[1:] == enb[:-1]] = 0  # edgeless supersteps
        ef_ns = (
            np.bincount(edges_ns, minlength=Etot)
            if base
            else np.zeros(Etot, dtype=np.int64)
        )
        out = []
        for c_i, (topo, caps, policy, steps, flits) in enumerate(cells):
            g0, g1 = int(gb[c_i]), int(gb[c_i + 1])
            E = caps.size
            ef = ef_ns[enb[g0] : enb[g1]]
            ef = (
                ef.reshape(g1 - g0, E).sum(axis=0)
                if E and g1 > g0
                else np.zeros(E, dtype=np.int64)
            )
            out.append((cycles_arr[g0:g1], maxq_g[g0:g1], ef))
        return out

    if base == 0:  # nothing routable anywhere
        return _split()

    pos = np.concatenate(pos_parts)
    length = np.concatenate(len_parts)
    off = np.concatenate(off_parts)
    edges_ns = np.concatenate(edge_parts)
    sstep = np.empty(base, dtype=np.int64)
    for g_i, chunks in enumerate(chunk_lists):
        for ch in chunks:
            if ch.nf:
                sstep[ch.slots] = g_i

    #: Namespaced edges never mix phases (phases of a superstep run
    #: sequentially; supersteps own disjoint edge ranges) and slot ids
    #: are assigned in emission order per phase, so the slot id *is* a
    #: valid static rank — and every sort key decodes back to its flit
    #: as ``slot = key % KB``.  No parallel id array to carry.
    KB = np.int64(base + 1)
    K1 = np.int64(Lmax + 1) * KB if remaining_mode else KB
    if int(Etot) * int(K1) >= 2**62:  # pragma: no cover
        raise OverflowError("fast-engine sort keys would overflow int64")

    def flit_keys(slots: np.ndarray) -> np.ndarray:
        ge = edges_ns[off[slots] + pos[slots]]
        if remaining_mode:
            return ge * K1 + (Lmax - (length[slots] - pos[slots])) * KB + slots
        return ge * K1 + slots

    queue = np.zeros(Etot, dtype=np.int64)
    credits = np.zeros(Etot)
    scount = np.zeros(G, dtype=np.int64)
    pidx = [-1] * G
    #: Integer capacities provably hold zero credit at every cycle start
    #: (accrue cap, serve or forfeit it whole), so their service floor is
    #: just ``caps`` — the credit arrays can be skipped wholesale.
    int_caps = bool(np.all(caps_ns == np.floor(caps_ns)))
    #: By the same invariant, credit state only matters on the
    #: fractional-capacity edge subset; the serve step replays the
    #: reference's float ops on that compact slice alone.
    compact_credits = not int_caps
    if compact_credits:
        frac_idx = np.flatnonzero(caps_ns != np.floor(caps_ns))
        fcaps_frac = caps_ns[frac_idx]
        fcred = np.zeros(frac_idx.size)
        frac_g = np.searchsorted(enb, frac_idx, side="right") - 1
        fsel = [np.flatnonzero(frac_g == g_i) for g_i in range(G)]
        avail_buf = fcaps_ns.copy()
    #: Per-edge flit totals are known at load time (every loaded flit
    #: crosses its whole path), so ``_split`` derives them from
    #: ``edges_ns`` — ``eflits_ns`` stays a scratch array for the
    #: skip helper's signature.
    ar = np.arange(base + 1, dtype=np.int64)  # shared arange pool
    keep_buf = np.empty(base + 1, dtype=bool)  # merge keep-mask scratch

    def merge(akey, bkey):
        """Merge sorted (bkey small) into sorted (akey large)."""
        n, m = akey.size, bkey.size
        if m == 0:
            return akey
        if n == 0:
            return bkey
        at = np.searchsorted(akey, bkey) + ar[:m]
        out_k = np.empty(n + m, dtype=np.int64)
        keep = np.ones(n + m, dtype=bool)
        keep[at] = False
        out_k[at] = bkey
        out_k[keep] = akey
        return out_k

    #: Non-empty phases not yet started, per superstep (vectorized
    #: `has-pending` for the skip branches' phase-boundary caps).
    pending = np.array(
        [sum(1 for ch in chunks if ch.nf) for chunks in chunk_lists],
        dtype=np.int64,
    )

    def start_next_phase(s: int) -> np.ndarray | None:
        """Advance superstep ``s`` to its next non-empty phase, if any."""
        chunks = chunk_lists[s]
        while pidx[s] + 1 < len(chunks):
            pidx[s] += 1
            ch = chunks[pidx[s]]
            if ch.nf:
                scount[s] = ch.nf
                pending[s] -= 1
                if compact_credits:
                    fcred[fsel[s]] = 0.0
                else:
                    credits[enb[s] : enb[s + 1]] = 0.0
                return ch.slots
        pidx[s] = len(chunks)
        return None

    def arrive(nkey_sorted):
        """Account arrivals' queue growth and its high-water mark."""
        ge = nkey_sorted // K1
        np.add(queue, np.bincount(ge, minlength=Etot), out=queue)
        qg = queue[ge]
        qh = qhigh[ge]
        qhigh[ge] = np.where(qg > qh, qg, qh)  # duplicates write one value

    def insert(skey, slots):
        nkey = np.sort(flit_keys(slots))
        arrive(nkey)
        return merge(skey, nkey)

    skey = np.empty(0, dtype=np.int64)
    for s in range(G):
        slots = start_next_phase(s)
        if slots is not None:
            skey = insert(skey, slots)
    alive_idx = np.flatnonzero(scount > 0)

    #: Drain skip applies when every capacity is a positive integer and
    #: the arbiter rank is static: a parked flit with in-queue rank r at
    #: an edge of capacity c crosses exactly at cycle r // c, so whole
    #: contended windows advance analytically unless a flying flit
    #: lands on a draining edge (which would perturb the queue order).
    drain_mode = int_caps and bool(caps_ns.size) and float(caps_ns.min()) >= 1.0
    window = _WINDOW_MIN
    skips = 0
    skipped = 0
    served_cycles = 0
    #: Drain events pay a full re-sort; when contention shifts so fast
    #: that they only net one cycle, fall back to the incremental serve
    #: branch for a stretch (doubling on repeated failure) before
    #: probing the drain again.
    serve_countdown = 0
    drain_fail = 0
    #: Uniform integer capacity (all six stock topologies except the
    #: fat tree): the congestion probe is a single max-reduce.
    cap_u = (
        int(fcaps_ns[0])
        if int_caps and Etot and int(fcaps_ns.min()) == int(fcaps_ns.max())
        else 0
    )
    while skey.size:
        quiet = queue.max() <= cap_u if cap_u else not (queue > fcaps_ns).any()
        if drain_mode and (quiet or serve_countdown <= 0):
            A = skey.size
            ids = skey % KB
            ge = skey // K1
            starts = np.cumsum(queue)
            starts -= queue
            rank = ar[:A] - starts[ge]
            d = rank // fcaps_ns[ge]
            head = off[ids] + pos[ids]
            rem = length[ids] - pos[ids]
            fin_t = d + rem  # cycle (exclusive) this flit is done by
            mr = np.zeros(G, dtype=np.int64)
            np.maximum.at(mr, sstep[ids], fin_t)
            # Never skip across a phase boundary: the next phase's flits
            # would have started contending inside the window.
            cap = int(fin_t.max())
            gate = (pending > 0) & (mr > 0)
            if gate.any():
                cap = min(cap, int(mr[gate].min()))
            W = min(window, cap)
            # Cycle 0 is always valid (it is the present state); probe
            # forward until a flyer collides or the window closes.
            k = 1
            wmax = None
            while k < W:
                j = k
                drainq = queue - j * fcaps_ns
                np.maximum(drainq, 0, out=drainq)
                thr = np.where(drainq > 0, drainq, fcaps_ns)
                act = fin_t > j
                o = np.maximum(j - d[act], 0)
                cnt = np.bincount(edges_ns[head[act] + o], minlength=Etot)
                if (cnt > thr).any():
                    break
                if wmax is None:
                    wmax = cnt
                else:
                    np.maximum(wmax, cnt, out=wmax)
                k += 1
            if wmax is not None:
                np.maximum(qhigh, wmax, out=qhigh)
            adv = np.clip(k - d, 0, rem)
            cycles_arr += np.minimum(k, mr)
            pos[ids] += adv
            done = adv == rem
            finished = ids[done]
            skey = np.sort(flit_keys(ids[~done]))
            queue = np.bincount(skey // K1, minlength=Etot)
            np.maximum(qhigh, queue, out=qhigh)
            skips += 1
            skipped += k
            served_cycles += k
            window = min(window * 2, _WINDOW_MAX) if k == W else _WINDOW_MIN
            if k > 2:
                drain_fail = 0
            else:
                drain_fail = min(drain_fail + 1, 4)
                serve_countdown = _WINDOW_MIN << drain_fail
        elif quiet:
            ids = skey % KB
            heads = off[ids] + pos[ids]
            rem = length[ids] - pos[ids]
            mr = np.zeros(G, dtype=np.int64)
            np.maximum.at(mr, sstep[ids], rem)
            # Never skip across a phase boundary: the next phase's flits
            # would have started contending inside the window.
            cap = int(rem.max())
            gate = (pending > 0) & (mr > 0)
            if gate.any():
                cap = min(cap, int(mr[gate].min()))
            W = min(window, cap)
            if compact_credits:
                # The skip helper replays credit float ops on the full
                # array; integer edges provably hold zero, so the
                # compact slice round-trips exactly.
                credits[frac_idx] = fcred
            k, wmax = _quiescent_skip(
                edges_ns, heads, rem, caps_ns, fcaps_ns, credits, eflits_ns, W
            )
            if compact_credits:
                fcred = credits[frac_idx]
            np.maximum(qhigh, wmax, out=qhigh)
            cycles_arr += np.minimum(k, mr)
            adv = np.minimum(k, rem)
            pos[ids] += adv
            done = adv == rem
            finished = ids[done]
            skey = np.sort(flit_keys(ids[~done]))
            queue = np.bincount(skey // K1, minlength=Etot)
            np.maximum(qhigh, queue, out=qhigh)
            skips += 1
            skipped += k
            window = min(window * 2, _WINDOW_MAX) if k == W else _WINDOW_MIN
        else:
            # One contended cycle: in the (edge, rank)-sorted array each
            # edge's winners are the contiguous head range of its
            # segment and the survivors the contiguous tail, so both
            # fall out of range arithmetic — no rank array, no masks.
            serve_countdown -= 1
            cycles_arr[alive_idx] += 1
            A = skey.size
            if int_caps:
                avail = fcaps_ns
            else:
                # Replay the reference's credit float ops, but only on
                # the fractional-capacity slice (integer edges provably
                # hold zero credit, so their floor service is static).
                qf = queue[frac_idx]
                busy_f = qf > 0
                fcred[busy_f] += fcaps_frac[busy_f]
                fcred[~busy_f] = 0.0
                af = np.floor(fcred).astype(np.int64)
                avail = avail_buf
                avail[frac_idx] = af
            served = np.minimum(queue, avail)
            if not int_caps:
                sf = served[frac_idx]
                fcred -= sf
                spare = busy_f & (af > qf)
                fcred[spare] %= 1.0
            csq = queue.cumsum()
            csv = served.cumsum()
            rem_q = queue - served
            diff = csq - csv
            W = int(csv[-1]) if csv.size else 0
            wpos = (diff - rem_q).repeat(served)
            wpos += ar[:W]
            wkey = skey[wpos]
            wid = wkey % KB
            R = A - W
            spos = csv.repeat(rem_q)
            spos += ar[:R]
            skey2 = skey[spos]
            queue = rem_q
            posw = pos[wid] + 1
            pos[wid] = posw
            fin = posw == length[wid]
            finished = wid[fin]
            nfin = ~fin
            aw = wid[nfin]
            m = aw.size
            if m:
                ge2 = edges_ns[off[aw] + posw[nfin]]
                # The sort key already encodes the rank: FIFO ranks are
                # static and farthest-to-go drifts by exactly KB per hop.
                rk = wkey[nfin] % K1
                if remaining_mode:
                    rk += KB
                nkey = ge2 * K1 + rk
                nkey.sort()
                # Inlined merge of the (small) sorted arrivals into the
                # (large) sorted survivors + arrival accounting; the
                # helper-function forms live in merge()/arrive() for the
                # cold phase-transition path.
                if R:
                    at = skey2.searchsorted(nkey)
                    at += ar[:m]
                    skey = np.empty(R + m, dtype=np.int64)
                    kb = keep_buf[: skey.size]
                    kb[:] = True
                    kb[at] = False
                    skey[at] = nkey
                    skey[kb] = skey2
                else:
                    skey = nkey
                ge_n = nkey // K1
                queue += np.bincount(ge_n, minlength=Etot)
                qg = queue[ge_n]
                qh = qhigh[ge_n]
                qhigh[ge_n] = np.where(qg > qh, qg, qh)
            else:
                skey = skey2
            served_cycles += 1
        if finished.size:
            fin_s = np.bincount(sstep[finished], minlength=G)
            scount -= fin_s
            hit_zero = (fin_s > 0) & (scount == 0)
            if hit_zero.any():
                for s in np.flatnonzero(hit_zero).tolist():
                    slots = start_next_phase(s)
                    if slots is not None:
                        skey = insert(skey, slots)
                alive_idx = np.flatnonzero(scount > 0)

    _bump(
        fused_runs=1,
        skips=skips,
        skipped_cycles=skipped,
        serve_cycles=served_cycles,
    )
    return _split()


def run_batch(
    cells: list,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Fast-engine execution of many independent simulations at once.

    ``cells`` is a list of ``(topo, caps, policy, arbiter, steps,
    flits)`` — one entry per (trace, topology, policy, arbiter) cell,
    ``steps`` its non-empty supersteps as ``(step, label, src, dst)``
    batches.  Static-rank cells fuse into one cycle loop per rank mode
    (the whole grid then costs its longest superstep chain, not the
    sum); dynamic-rank cells fall back to the per-phase loop.  Results
    are bit-identical to running each cell alone.  Returns per-cell
    ``(cycles, max_queue, edge_flits)`` aligned with ``cells``.
    """
    results: list = [None] * len(cells)
    by_mode: dict[str, list[int]] = {}
    for i, (topo, caps, policy, arbiter, steps, flits) in enumerate(cells):
        if arbiter.rank_mode == "dynamic":
            results[i] = run_trace(topo, caps, policy, arbiter, steps, flits)
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


def run_trace(
    topo,
    caps: np.ndarray,
    policy,
    arbiter: Arbiter,
    steps: list,
    flits: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fast-engine execution of a trace's non-empty supersteps.

    ``steps`` is a list of ``(step, label, src, dst)`` batches (already
    self-message-filtered).  Returns per-step ``(cycles, max_queue)``
    arrays aligned to ``steps`` plus the per-edge flit totals.
    """
    E = caps.size
    edge_flits = np.zeros(E, dtype=np.int64)
    if arbiter.rank_mode == "dynamic":
        fcaps = np.floor(caps).astype(np.int64)
        cycles = np.zeros(len(steps), dtype=np.int64)
        max_queue = np.zeros(len(steps), dtype=np.int64)
        phases_run = 0
        for i, (step, label, src, dst) in enumerate(steps):
            c_tot, q_tot = 0, 0
            for ph, (ph_src, ph_dst) in enumerate(
                policy.phases(topo, step, label, src, dst)
            ):
                cross = ph_src != ph_dst
                ph_src, ph_dst = ph_src[cross], ph_dst[cross]
                if ph_src.size == 0:
                    continue
                poff, pedges = topo.route_paths(ph_src, ph_dst)
                poff, pedges = expand_paths(poff, pedges, flits)
                c, q = _run_phase_dynamic(
                    caps, fcaps, poff, pedges, arbiter, step, ph, edge_flits
                )
                c_tot += c
                q_tot = max(q_tot, q)
                phases_run += 1
            cycles[i], max_queue[i] = c_tot, q_tot
        _bump(dynamic_phases=phases_run)
        return cycles, max_queue, edge_flits
    ((cycles, max_queue, edge_flits),) = _run_fused(
        [(topo, caps, policy, steps, flits)],
        arbiter.rank_mode == "remaining",
    )
    return cycles, max_queue, edge_flits
