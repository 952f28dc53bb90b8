"""Point-to-point network topologies — what D-BSP abstracts (Bilardi et al. '99).

Each topology maps the ``p`` processors of an M(p) trace onto network
nodes such that the model's *i-clusters* (processors sharing ``i``
leading index bits) correspond to good subnetworks:

* :class:`Ring` — processor ``r`` at ring position ``r``; i-clusters are
  contiguous arcs.
* :class:`Mesh2D` — processors indexed in Morton (Z) order, so every
  i-cluster is an axis-aligned sub-rectangle (square every other level).
* :class:`Torus2D` — the same Morton grid with wraparound row/column
  rings; each axis routes the shorter way around.
* :class:`Hypercube` — processor index = node coordinates; i-clusters
  are subcubes.
* :class:`FatTree` — a complete binary tree over the processors (at the
  leaves) whose level-d edges carry capacity ``~sqrt(leaves below)``
  (area-universal sizing, Leiserson '85).
* :class:`Butterfly` — a ``log p``-dimensional butterfly with processors
  on the rows; a message ascends only through the levels where its
  endpoints' row bits differ (dimension-order on the bit indices).

Every topology exposes its edge list with capacities and one **fused,
vectorised** load kernel, ``route_loads_multi``: for (src, dst) pairs
tagged with a sorted segment id (a superstep of a folded trace) it
returns the per-(segment, edge) loads and per-segment dilation in one
pass over the flat ``seg * E + edge`` key space — consumed by
:mod:`repro.networks.routing` to time h-relations by the classic
congestion + dilation bound.  The original per-message routers are
retained verbatim as ``route_loads_reference`` oracles and
property-tested bit-identical to every segment of the kernel
(`tests/test_networks.py`, `tests/test_routing_fused.py`).

Vectorisation strategy: the ring, mesh and torus move messages along
axis runs, so per-edge loads are sums of *interval indicators* over the
flat edge-id space.  Each interval contributes ``+1`` at its first edge
and ``-1`` one past its last; one ``np.bincount`` per endpoint set plus
one ``np.cumsum`` recovers all loads with no per-message Python
iteration (the endpoint marks of wrapped ring intervals split in two).
The fat-tree ascends heap ancestors and the butterfly its levels
round by round, dropping messages whose path has ended; the hypercube
walks its ``log p`` dimensions over global ``seg * p + node`` ids.
Dilation is a ``np.maximum.reduceat`` of the per-message path lengths
over the sorted segments.  Loads are accumulated in ``int64`` and
converted to float at the end, so they are bit-identical to the
references' ``+= 1.0`` sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.intmath import ilog2
from repro.util.morton import morton_decode

__all__ = [
    "Topology",
    "Ring",
    "Mesh2D",
    "Torus2D",
    "Hypercube",
    "FatTree",
    "Butterfly",
    "by_name",
    "TOPOLOGIES",
]


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for non-negative int64 arrays.

    ``frexp`` returns the exponent ``e`` with ``x = m * 2**e`` and
    ``0.5 <= m < 1``, which equals the bit length exactly for every
    integer below 2**53 (and 0 for 0).
    """
    return np.frexp(x.astype(np.float64))[1].astype(np.int64)


def _interval_loads(
    starts: np.ndarray, ends: np.ndarray, num_edges: int
) -> np.ndarray:
    """Sum of half-open interval indicators ``[starts, ends)`` over edge ids.

    The classic difference-array trick: ``+1`` at each start, ``-1`` at
    each end, prefix-sum.  ``ends`` may equal ``num_edges`` (the sentinel
    slot absorbs the mark), and an empty interval's marks cancel, so
    zero-length runs need no filtering.  Returns ``int64`` loads.
    """
    delta = np.bincount(starts, minlength=num_edges + 1).astype(np.int64)
    delta -= np.bincount(ends, minlength=num_edges + 1)
    return np.cumsum(delta[:num_edges])


def _shortest_runs(
    a: np.ndarray, b: np.ndarray, ring: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(length, start)`` of the shorter way round a power-of-two ring.

    The run from ``a`` to ``b`` covers edges ``[start, start + length)``
    mod ``ring`` (edge ``e`` connects ``e -> e+1``); a tie at ``ring/2``
    goes forward, matching the reference routers.
    """
    fwd = (b - a) & (ring - 1)
    bwd = (a - b) & (ring - 1)
    return np.minimum(fwd, bwd), np.where(fwd <= bwd, a, b)


def _ring_runs(
    start: np.ndarray, length: np.ndarray, base: np.ndarray, ring: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat-id interval marks of ring runs ``[start, start+length) mod ring``.

    Each run lives in the edge-id block ``[base, base + ring)``; wrapped
    runs split into a tail ``[base+start, base+ring)`` and a head
    ``[base, base + overflow)``.  Returns ``(starts, ends)`` mark arrays
    for :func:`_interval_loads`.
    """
    stop = start + length
    wrap = stop > ring
    starts = base + start
    ends = base + np.minimum(stop, ring)
    if wrap.any():
        starts = np.concatenate([starts, base[wrap]])
        ends = np.concatenate([ends, base[wrap] + stop[wrap] - ring])
    return starts, ends


def _segment_max(
    values: np.ndarray, seg: np.ndarray, num_segs: int
) -> np.ndarray:
    """Per-segment maximum of ``values`` (0 for an empty segment).

    ``seg`` is non-decreasing, so each segment is one contiguous run and
    a single ``np.maximum.reduceat`` over the non-empty runs covers all.
    """
    out = np.zeros(num_segs, dtype=np.int64)
    if values.size:
        bounds = np.searchsorted(seg, np.arange(num_segs + 1))
        starts = bounds[:-1]
        busy = starts < bounds[1:]
        out[busy] = np.maximum.reduceat(values, starts[busy])
    return out


def _count(keys: list[np.ndarray], total: int) -> np.ndarray:
    """int64 occurrence counts over ``[0, total)`` of the concatenated keys."""
    flat = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
    return np.bincount(flat, minlength=total)


def _grid(loads: np.ndarray, num_segs: int, num_edges: int) -> np.ndarray:
    """Flat ``seg * E + edge`` int64 loads as a float ``(num_segs, E)`` grid."""
    return loads.reshape(num_segs, num_edges).astype(np.float64)


def _path_offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets of per-message path lengths."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _run_path_edges(
    start: np.ndarray,
    length: np.ndarray,
    forward: np.ndarray,
    base: np.ndarray,
    ring: int,
) -> np.ndarray:
    """Hop-ordered edge ids of ring runs starting at node ``start``.

    A forward run from node ``s`` traverses edges ``s, s+1, ...``; a
    backward run traverses ``s-1, s-2, ...`` (edge ``e`` connects
    ``e -> e+1``), all mod ``ring`` inside the edge-id block starting at
    ``base``.  The result is message-major, hop order within each run.
    """
    total = int(length.sum())
    off = _path_offsets(length)
    j = np.arange(total, dtype=np.int64) - np.repeat(off[:-1], length)
    s = np.repeat(start, length)
    step = np.where(np.repeat(forward, length), j, -1 - j)
    return np.repeat(base, length) + (s + step) % ring


def _paths_from_segments(
    segments: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble per-message path segments into one hop-ordered CSR.

    Each ``(lengths, edges)`` entry holds, message-major, the edges of
    one path segment; message ``t`` traverses segment ``k``'s edges
    after segment ``k-1``'s.  Returns ``(offsets, edges)`` with message
    ``t``'s full path at ``edges[offsets[t]:offsets[t+1]]``.
    """
    total_len = segments[0][0].copy()
    for lens, _ in segments[1:]:
        total_len += lens
    offsets = _path_offsets(total_len)
    out = np.empty(int(offsets[-1]), dtype=np.int64)
    shift = offsets[:-1].copy()
    for lens, vals in segments:
        seg_off = _path_offsets(lens)
        within = np.arange(vals.size, dtype=np.int64) - np.repeat(seg_off[:-1], lens)
        out[np.repeat(shift, lens) + within] = vals
        shift += lens
    return offsets, out


def _sorted_paths(
    lengths: np.ndarray,
    msg_chunks: list[np.ndarray],
    edge_chunks: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """CSR paths from (message, edge) chunks emitted in hop order.

    Level-synchronous routers emit each hop's edges across all messages
    at once; a stable sort by message id regroups them message-major
    while preserving the per-message hop order.
    """
    offsets = _path_offsets(lengths)
    if not msg_chunks:
        return offsets, np.empty(0, dtype=np.int64)
    msg = np.concatenate(msg_chunks)
    edges = np.concatenate(edge_chunks)
    return offsets, edges[np.argsort(msg, kind="stable")]


@dataclass
class Topology:
    """Base: a network with ``p`` processor slots and capacitated edges."""

    p: int
    name: str = field(default="topology", init=False)

    def __post_init__(self) -> None:
        ilog2(self.p)
        self._caps: np.ndarray | None = None

    # Subclasses implement: edge enumeration and path load accounting.
    def num_edges(self) -> int:
        raise NotImplementedError

    def _compute_edge_capacities(self) -> np.ndarray:
        return np.ones(self.num_edges())

    def edge_capacities(self) -> np.ndarray:
        """Per-edge capacities (computed once per instance, read-only).

        Routing divides every superstep's loads by this vector, so the
        cache turns an O(edges) rebuild per superstep into a single
        precompute per topology instance.
        """
        if self._caps is None:
            caps = self._compute_edge_capacities()
            caps.setflags(write=False)
            self._caps = caps
        return self._caps

    def route_loads_multi(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        seg: np.ndarray,
        num_segs: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge loads and dilation of many independent batches at once.

        ``seg[t]`` assigns message ``t`` to one of ``num_segs`` segments
        (in practice: the supersteps of a folded trace) and must be
        non-decreasing.  Returns ``(loads, dilation)`` of shapes
        ``(num_segs, E)`` and ``(num_segs,)``: row ``s`` equals
        ``route_loads_reference(src[seg == s], dst[seg == s])``
        bit-for-bit — self-messages charge nothing and an empty segment
        is all zeros.  Implementations fuse all segments into one kernel
        pass over the flat ``seg * E + edge`` key space.  This is the
        only load kernel: the router calls it once per routing phase and
        superstep block.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement route_loads_multi"
        )

    def route_loads_reference(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Per-message oracle: the loads and dilation of one batch."""
        raise NotImplementedError

    def route_paths(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hop-ordered edge paths of every (src, dst) pair, batched.

        Returns CSR ``(offsets, edges)``: message ``t`` traverses
        ``edges[offsets[t]:offsets[t+1]]`` in order (empty for
        self-messages).  The path multiset agrees with
        :meth:`route_loads_multi` — ``bincount(edges) == loads`` and
        per-path lengths equal :meth:`pair_distance` — a property-tested
        invariant of every shipped topology.  This is the per-hop view
        the cycle-accurate simulator (:mod:`repro.sim`) consumes;
        :meth:`route_loads_multi` remains the cheap aggregate for
        analytic pricing.
        """
        raise NotImplementedError

    def pair_distance(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Routed path length of each (src, dst) pair (0 for self-messages).

        Load conservation — the loads of one batch sum to
        ``pair_distance(src, dst).sum()`` — is a property-tested
        invariant of every topology.
        """
        raise NotImplementedError

    def diameter_of_cluster(self, i: int) -> float:
        """Graph diameter of an i-cluster's subnetwork."""
        raise NotImplementedError

    def bisection_of_cluster(self, i: int) -> float:
        """Capacity crossing the (i+1)-level split of an i-cluster."""
        raise NotImplementedError


class Ring(Topology):
    """Bidirectional ring; messages take the shorter direction."""

    def __init__(self, p: int):
        super().__init__(p)
        self.name = "ring"

    def num_edges(self) -> int:
        return self.p  # edge e connects e -> (e+1) mod p

    def pair_distance(self, src, dst):
        fwd = (dst - src) % self.p
        return np.minimum(fwd, (self.p - fwd) % self.p)

    def route_loads_multi(self, src, dst, seg, num_segs):
        p = self.p
        length, start = _shortest_runs(src, dst, p)
        starts, ends = _ring_runs(start, length, seg * p, p)
        loads = _interval_loads(starts, ends, num_segs * p)
        return _grid(loads, num_segs, p), _segment_max(length, seg, num_segs)

    def route_paths(self, src, dst):
        p = self.p
        fwd = (dst - src) % p
        bwd = (src - dst) % p
        length = np.minimum(fwd, bwd)
        edges = _run_path_edges(
            src, length, fwd <= bwd, np.zeros(src.size, dtype=np.int64), p
        )
        return _path_offsets(length), edges

    def route_loads_reference(self, src, dst):
        loads = np.zeros(self.p)
        if src.size == 0:
            return loads, 0
        fwd = (dst - src) % self.p
        bwd = (src - dst) % self.p
        dil = 0
        for s, f, b in zip(src, fwd, bwd):
            if f == 0:
                continue
            if f <= b:
                idx = (s + np.arange(f)) % self.p
                dil = max(dil, int(f))
            else:
                idx = (s - 1 - np.arange(b)) % self.p
                dil = max(dil, int(b))
            np.add.at(loads, idx, 1.0)
        return loads, dil

    def diameter_of_cluster(self, i: int) -> float:
        # An i-cluster is a path of p/2^i nodes (ring edges out of the
        # cluster are unusable without leaving it).
        return max(1, (self.p >> i) - 1)

    def bisection_of_cluster(self, i: int) -> float:
        return 1.0  # a path splits across one edge


def _morton_rect(m: int) -> tuple[int, int]:
    """(width, height) of a Morton-contiguous block of ``m`` slots.

    With the row bit above the column bit, the ``log m`` free low bits
    split into ``ceil/2`` column bits and ``floor/2`` row bits.
    """
    k = ilog2(m)
    w = 1 << ((k + 1) // 2)
    return w, m // w


class Mesh2D(Topology):
    """sqrt(p) x sqrt(p) mesh with Morton processor indexing."""

    def __init__(self, p: int):
        super().__init__(p)
        self.name = "mesh2d"
        self.side = 1 << (ilog2(p) // 2)
        self.side_y = self.p // self.side
        # Coordinates of each processor (Morton order).
        r, c = morton_decode(np.arange(p), max(self.side, self.side_y))
        self.row, self.col = r, c

    def num_edges(self) -> int:
        sx = max(self.side, self.side_y)
        return 2 * sx * sx

    def pair_distance(self, src, dst):
        return np.abs(self.row[src] - self.row[dst]) + np.abs(
            self.col[src] - self.col[dst]
        )

    def route_loads_multi(self, src, dst, seg, num_segs):
        # Dimension-order routing: horizontal along the source row, then
        # vertical along the destination column — both axis runs are
        # contiguous intervals of flat edge ids.  Horizontal edge
        # (r, c)-(r, c+1) has id r*sx + c; vertical edge (r, c)-(r+1, c)
        # has id sx*sx + c*sx + r.
        E = self.num_edges()
        r1, c1 = self.row[src], self.col[src]
        r2, c2 = self.row[dst], self.col[dst]
        sx = max(self.side, self.side_y)
        off = sx * sx
        base = seg * E
        hlo, hhi = np.minimum(c1, c2), np.maximum(c1, c2)
        vlo, vhi = np.minimum(r1, r2), np.maximum(r1, r2)
        hrow = base + r1 * sx
        vcol = base + off + c2 * sx
        starts = np.concatenate([hrow + hlo, vcol + vlo])
        ends = np.concatenate([hrow + hhi, vcol + vhi])
        loads = _interval_loads(starts, ends, num_segs * E)
        length = (hhi - hlo) + (vhi - vlo)
        return _grid(loads, num_segs, E), _segment_max(length, seg, num_segs)

    def route_paths(self, src, dst):
        # Same dimension order as route_loads_multi: horizontal along the
        # source row, then vertical along the destination column.  Mesh
        # runs never wrap, so the ring-run expansion is exact.
        r1, c1 = self.row[src], self.col[src]
        r2, c2 = self.row[dst], self.col[dst]
        sx = max(self.side, self.side_y)
        off = sx * sx
        hlen = np.abs(c2 - c1)
        vlen = np.abs(r2 - r1)
        hedges = _run_path_edges(c1, hlen, c2 >= c1, r1 * sx, sx)
        vedges = _run_path_edges(r1, vlen, r2 >= r1, off + c2 * sx, sx)
        return _paths_from_segments([(hlen, hedges), (vlen, vedges)])

    def route_loads_reference(self, src, dst):
        loads = np.zeros(self.num_edges())
        if src.size == 0:
            return loads, 0
        r1, c1 = self.row[src], self.col[src]
        r2, c2 = self.row[dst], self.col[dst]
        dil = int(np.max(np.abs(r1 - r2) + np.abs(c1 - c2), initial=0))
        sx = max(self.side, self.side_y)
        off = sx * sx
        for a1, b1, a2, b2 in zip(r1, c1, r2, c2):
            lo, hi = (b1, b2) if b1 <= b2 else (b2, b1)
            if hi > lo:
                np.add.at(loads, a1 * sx + np.arange(lo, hi), 1.0)
            lo, hi = (a1, a2) if a1 <= a2 else (a2, a1)
            if hi > lo:
                np.add.at(loads, off + b2 * sx + np.arange(lo, hi), 1.0)
        return loads, dil

    def diameter_of_cluster(self, i: int) -> float:
        # Morton i-clusters are w x h rectangles with w*h = m, w/h in {1,2}.
        w, h = _morton_rect(self.p >> i)
        return max(1, (w - 1) + (h - 1))

    def bisection_of_cluster(self, i: int) -> float:
        m = self.p >> i
        w, _ = _morton_rect(m)
        return max(1.0, m / w)  # cut across the longer side


class Torus2D(Topology):
    """2-D torus (Morton indexing): per-axis rings, shorter way around.

    Same grid and dimension order as :class:`Mesh2D` — horizontal along
    the source row, then vertical along the destination column — but
    each axis run is a ring interval that may wrap.  Edge ids: the
    horizontal edge (r, c)-(r, (c+1) mod w) is ``r*w + c``; the vertical
    edge (r, c)-((r+1) mod h, c) is ``p + c*h + r`` — exactly ``2p``
    edges, all usable.
    """

    def __init__(self, p: int):
        super().__init__(p)
        self.name = "torus2d"
        self.w, self.h = _morton_rect(p)
        r, c = morton_decode(np.arange(p), self.w)
        self.row, self.col = r, c

    def num_edges(self) -> int:
        return 2 * self.p

    def _axis_lengths(self, src, dst):
        fwd_c = (self.col[dst] - self.col[src]) % self.w
        fwd_r = (self.row[dst] - self.row[src]) % self.h
        return (
            np.minimum(fwd_c, (self.w - fwd_c) % self.w),
            np.minimum(fwd_r, (self.h - fwd_r) % self.h),
        )

    def pair_distance(self, src, dst):
        dc, dr = self._axis_lengths(src, dst)
        return dc + dr

    def route_loads_multi(self, src, dst, seg, num_segs):
        E = self.num_edges()
        r1, c1 = self.row[src], self.col[src]
        r2, c2 = self.row[dst], self.col[dst]
        len_c, start_c = _shortest_runs(c1, c2, self.w)
        len_r, start_r = _shortest_runs(r1, r2, self.h)
        base = seg * E
        sh, eh = _ring_runs(start_c, len_c, base + r1 * self.w, self.w)
        sv, ev = _ring_runs(start_r, len_r, base + self.p + c2 * self.h, self.h)
        loads = _interval_loads(
            np.concatenate([sh, sv]), np.concatenate([eh, ev]), num_segs * E
        )
        return _grid(loads, num_segs, E), _segment_max(
            len_c + len_r, seg, num_segs
        )

    def route_paths(self, src, dst):
        r1, c1 = self.row[src], self.col[src]
        r2, c2 = self.row[dst], self.col[dst]
        fwd_c = (c2 - c1) % self.w
        bwd_c = (c1 - c2) % self.w
        fwd_r = (r2 - r1) % self.h
        bwd_r = (r1 - r2) % self.h
        len_c = np.minimum(fwd_c, bwd_c)
        len_r = np.minimum(fwd_r, bwd_r)
        hedges = _run_path_edges(c1, len_c, fwd_c <= bwd_c, r1 * self.w, self.w)
        vedges = _run_path_edges(
            r1, len_r, fwd_r <= bwd_r, self.p + c2 * self.h, self.h
        )
        return _paths_from_segments([(len_c, hedges), (len_r, vedges)])

    def route_loads_reference(self, src, dst):
        loads = np.zeros(self.num_edges())
        if src.size == 0:
            return loads, 0
        dil = 0
        for s, d in zip(src, dst):
            r1, c1 = int(self.row[s]), int(self.col[s])
            r2, c2 = int(self.row[d]), int(self.col[d])
            hops = 0
            f, b = (c2 - c1) % self.w, (c1 - c2) % self.w
            if f <= b:
                cols = (c1 + np.arange(f)) % self.w
                hops += f
            else:
                cols = (c1 - 1 - np.arange(b)) % self.w
                hops += b
            np.add.at(loads, r1 * self.w + cols, 1.0)
            f, b = (r2 - r1) % self.h, (r1 - r2) % self.h
            if f <= b:
                rows = (r1 + np.arange(f)) % self.h
                hops += f
            else:
                rows = (r1 - 1 - np.arange(b)) % self.h
                hops += b
            np.add.at(loads, self.p + c2 * self.h + rows, 1.0)
            dil = max(dil, hops)
        return loads, dil

    def diameter_of_cluster(self, i: int) -> float:
        w, h = _morton_rect(self.p >> i)
        # Wraparound is only usable when the cluster spans the full ring.
        dx = w // 2 if w == self.w else w - 1
        dy = h // 2 if h == self.h else h - 1
        return max(1, dx + dy)

    def bisection_of_cluster(self, i: int) -> float:
        m = self.p >> i
        w, h = _morton_rect(m)
        # Cut across the longer (column) direction: h row-ring edges per
        # cut line, two lines when the rows are full rings.
        return max(1.0, h * (2.0 if w == self.w else 1.0))


class Hypercube(Topology):
    """log p - dimensional hypercube, dimension-order routing."""

    def __init__(self, p: int):
        super().__init__(p)
        self.name = "hypercube"
        self.dims = ilog2(p)

    def num_edges(self) -> int:
        return self.p * self.dims  # edge id: node * dims + dimension

    def pair_distance(self, src, dst):
        return np.bitwise_count((src ^ dst).astype(np.uint64)).astype(np.int64)

    def route_loads_multi(self, src, dst, seg, num_segs):
        # Walk global node ids seg*p + node: edge (node, d) of segment
        # seg is then (seg*p + node)*dims + d, and correcting a bit below
        # log p never touches the segment bits.  Bits are corrected low
        # to high, one edge each; one bincount counts every hop.
        dims = self.dims
        diff = src ^ dst
        cur = seg * self.p + src
        hops = []
        for d in range(dims):
            bit = diff & (1 << d)
            hops.append(cur[bit != 0] * dims + d)
            cur ^= bit
        E = self.num_edges()
        loads = _count(hops, num_segs * E)
        length = np.bitwise_count(diff).astype(np.int64)
        return _grid(loads, num_segs, E), _segment_max(length, seg, num_segs)

    def route_paths(self, src, dst):
        # Dimension-order: bits corrected low to high, one edge each —
        # the per-dimension chunks come out in hop order already.
        diff = src ^ dst
        lengths = np.bitwise_count(diff.astype(np.uint64)).astype(np.int64)
        msg_chunks: list[np.ndarray] = []
        edge_chunks: list[np.ndarray] = []
        cur = src.copy()
        for d in range(self.dims):
            flip = (diff >> d) & 1 == 1
            if flip.any():
                msg_chunks.append(np.flatnonzero(flip))
                edge_chunks.append(cur[flip] * self.dims + d)
                cur = cur ^ (flip.astype(np.int64) << d)
        return _sorted_paths(lengths, msg_chunks, edge_chunks)

    def route_loads_reference(self, src, dst):
        loads = np.zeros(self.num_edges())
        dil = 0
        for s, d in zip(src, dst):
            cur, diff, hops = int(s), int(s ^ d), 0
            for b in range(self.dims):
                if (diff >> b) & 1:
                    loads[cur * self.dims + b] += 1.0
                    cur ^= 1 << b
                    hops += 1
            dil = max(dil, hops)
        return loads, dil

    def diameter_of_cluster(self, i: int) -> float:
        return max(1, ilog2(self.p >> i))

    def bisection_of_cluster(self, i: int) -> float:
        return (self.p >> i) / 2.0


class FatTree(Topology):
    """Complete binary fat-tree over the processors (leaves).

    The two edges below a height-``d`` internal node each carry capacity
    ``ceil(2^{d-1} / sqrt(2^{d-1}}) ~ sqrt(leaves)`` (area-universal
    sizing).  Routing is the unique tree path.
    """

    def __init__(self, p: int):
        super().__init__(p)
        self.name = "fat-tree"
        self.height = ilog2(p)

    def num_edges(self) -> int:
        return 2 * self.p - 2  # edges of a complete binary tree, by child

    def _cap(self, child_subtree: int) -> float:
        return max(1.0, child_subtree**0.5)

    def _compute_edge_capacities(self) -> np.ndarray:
        # Edge id = internal child node id - 1 in heap numbering over
        # 2p-1 nodes; the nodes of heap depth d are the contiguous block
        # [2^d - 1, 2^{d+1} - 1) and each roots 2^{height-d} leaves.
        caps = np.ones(self.num_edges())
        for d in range(1, self.height + 1):
            lo, hi = (1 << d) - 1, (1 << (d + 1)) - 1
            caps[lo - 1 : hi - 1] = self._cap(self.p >> d)
        return caps

    def pair_distance(self, src, dst):
        # Leaves sit at equal depth, so the path climbs to the LCA and
        # back: 2 * (height - shared msb) = 2 * bit_length(src ^ dst).
        return 2 * _bit_length(src ^ dst)

    def route_loads_multi(self, src, dst, seg, num_segs):
        # Leaves sit at equal depth, so a message climbs bit_length(src ^
        # dst) levels from each end.  The heap node j levels above leaf x
        # is ((x + p) >> j) - 1 and its parent edge has id one less.
        # Level-synchronous: each round charges one edge on both sides
        # of every unfinished message, then drops the finished ones
        # (self-messages never enter).
        E = self.num_edges()
        diff = src ^ dst
        length = 2 * _bit_length(diff)
        live = diff != 0
        base = (seg * E - 2)[live]
        a = (src + self.p)[live]
        b = (dst + self.p)[live]
        diff = diff[live]
        hops = []
        while diff.size:
            hops += [base + a, base + b]
            a >>= 1
            b >>= 1
            diff >>= 1
            live = diff != 0
            if not live.all():
                a, b, diff, base = a[live], b[live], diff[live], base[live]
        loads = _count(hops, num_segs * E)
        return _grid(loads, num_segs, E), _segment_max(length, seg, num_segs)

    def route_paths(self, src, dst):
        # Leaves sit at equal depth, so lifting both endpoints together
        # meets at the LCA: round r emits the src-side edge traversed at
        # hop r (climbing) and the dst-side edge traversed at hop
        # length-1-r (descending) — a lexsort by (message, hop) regroups
        # them into the climb-then-descend walk.
        lengths = 2 * _bit_length(src ^ dst)
        offsets = _path_offsets(lengths)
        a = src + self.p - 1
        b = dst + self.p - 1
        msg_chunks: list[np.ndarray] = []
        hop_chunks: list[np.ndarray] = []
        edge_chunks: list[np.ndarray] = []
        r = 0
        while True:
            ne = a != b
            if not ne.any():
                break
            idx = np.flatnonzero(ne)
            msg_chunks += [idx, idx]
            hop_chunks += [
                np.full(idx.size, r, dtype=np.int64),
                lengths[ne] - 1 - r,
            ]
            edge_chunks += [a[ne] - 1, b[ne] - 1]
            a = np.where(ne, (a - 1) >> 1, a)
            b = np.where(ne, (b - 1) >> 1, b)
            r += 1
        if not msg_chunks:
            return offsets, np.empty(0, dtype=np.int64)
        msg = np.concatenate(msg_chunks)
        hop = np.concatenate(hop_chunks)
        edges = np.concatenate(edge_chunks)
        return offsets, edges[np.lexsort((hop, msg))]

    def route_loads_reference(self, src, dst):
        loads = np.zeros(self.num_edges())
        if src.size == 0:
            return loads, 0
        dil = 0
        for s, d in zip(src, dst):
            if s == d:
                continue
            # Heap ids of the leaves.
            a = s + self.p - 1
            b = d + self.p - 1
            hops = 0
            while a != b:
                if a > b:
                    loads[a - 1] += 1.0
                    a = (a - 1) // 2
                else:
                    loads[b - 1] += 1.0
                    b = (b - 1) // 2
                hops += 1
            dil = max(dil, hops)
        return loads, dil

    def diameter_of_cluster(self, i: int) -> float:
        return max(1, 2 * ilog2(self.p >> i))

    def bisection_of_cluster(self, i: int) -> float:
        return self._cap(self.p >> (i + 1))


class Butterfly(Topology):
    """``log p``-dimensional butterfly, processors on the rows.

    Level ``l`` of the network connects rows differing in bit ``l``:
    the straight edge (l, r)-(l+1, r) has id ``l*p + r`` and the cross
    edge (l, r)-(l+1, r ^ 2^l) has id ``dims*p + l*p + r``.  A message
    ascends only through levels ``0 .. bit_length(src ^ dst) - 1`` —
    straight where the bit agrees, cross where it differs — so its path
    length is exactly the highest differing bit index + 1, and traffic
    inside an i-cluster never touches the top ``i`` levels.
    """

    def __init__(self, p: int):
        super().__init__(p)
        self.name = "butterfly"
        self.dims = ilog2(p)

    def num_edges(self) -> int:
        return 2 * self.dims * self.p

    def pair_distance(self, src, dst):
        return _bit_length(src ^ dst)

    def route_loads_multi(self, src, dst, seg, num_segs):
        # Level l charges the straight or the cross edge out of the
        # current row, walked as the global id seg*E + row (E is a
        # multiple of p, so flipping a row bit never touches seg*E); a
        # message leaves the loop after its highest differing bit
        # (self-messages never enter).
        E = self.num_edges()
        cross_base = self.dims * self.p
        diff = src ^ dst
        length = _bit_length(diff)
        live = diff != 0
        row = (seg * E + src)[live]
        diff = diff[live]
        hops = []
        level = 0
        while diff.size:
            bit = diff & 1
            hops.append(row + bit * cross_base + level * self.p)
            row ^= bit << level
            diff >>= 1
            level += 1
            live = diff != 0
            if not live.all():
                row, diff = row[live], diff[live]
        loads = _count(hops, num_segs * E)
        return _grid(loads, num_segs, E), _segment_max(length, seg, num_segs)

    def route_paths(self, src, dst):
        # Levels are ascended in order, one edge per level, so the
        # per-level chunks are already in hop order.
        diff = src ^ dst
        lengths = _bit_length(diff)
        cross_base = self.dims * self.p
        msg_chunks: list[np.ndarray] = []
        edge_chunks: list[np.ndarray] = []
        cur = src.copy()
        for l in range(int(lengths.max(initial=0))):
            active = (diff >> l) != 0
            cross = active & (((diff >> l) & 1) == 1)
            straight = active & ~cross
            if straight.any():
                msg_chunks.append(np.flatnonzero(straight))
                edge_chunks.append(l * self.p + cur[straight])
            if cross.any():
                msg_chunks.append(np.flatnonzero(cross))
                edge_chunks.append(cross_base + l * self.p + cur[cross])
                cur = cur ^ (cross.astype(np.int64) << l)
        return _sorted_paths(lengths, msg_chunks, edge_chunks)

    def route_loads_reference(self, src, dst):
        loads = np.zeros(self.num_edges())
        dil = 0
        cross_base = self.dims * self.p
        for s, d in zip(src, dst):
            cur, diff = int(s), int(s ^ d)
            hops = diff.bit_length()
            for l in range(hops):
                if (diff >> l) & 1:
                    loads[cross_base + l * self.p + cur] += 1.0
                    cur ^= 1 << l
                else:
                    loads[l * self.p + cur] += 1.0
            dil = max(dil, hops)
        return loads, dil

    def diameter_of_cluster(self, i: int) -> float:
        # Intra-cluster messages differ only in their low dims - i bits.
        return max(1, self.dims - i)

    def bisection_of_cluster(self, i: int) -> float:
        return (self.p >> i) / 2.0


#: Registry of shipped topologies (name -> constructor).
TOPOLOGIES = {
    "ring": Ring,
    "mesh2d": Mesh2D,
    "torus2d": Torus2D,
    "hypercube": Hypercube,
    "fat-tree": FatTree,
    "butterfly": Butterfly,
}


def by_name(name: str, p: int) -> Topology:
    """Construct a topology by preset name."""
    if name not in TOPOLOGIES:
        raise KeyError(f"unknown topology {name!r}; choose from {sorted(TOPOLOGIES)}")
    return TOPOLOGIES[name](p)
