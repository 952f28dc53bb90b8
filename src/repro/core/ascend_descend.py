"""The ascend–descend execution protocol of Section 5 (Lemma 5.1).

Executing a network-oblivious algorithm on a D-BSP by plain folding can be
badly suboptimal when communication is unbalanced (poor wiseness): the
canonical example is one 0-superstep where VP_0 sends ``n`` messages to
VP_{n/2} — folded, a single processor pays the whole ``n * g_0``.  The
ascend–descend protocol instead transports each superstep's messages in a
balanced fashion through the cluster hierarchy:

* **Ascend phase** (for ``k = log p - 1`` down to ``i+1``): within each
  k-cluster, the messages originating in the cluster but destined outside
  it are spread evenly over the cluster's ``p/2^k`` processors.
* **Descend phase** (for ``k = i`` up to ``log p - 1``): within each
  k-cluster, the messages residing in it are spread evenly over the
  processors of the (k+1)-cluster containing their final destination;
  after the last iteration every message sits exactly at its destination.

Each iteration needs a prefix-like computation to agree on intermediate
destinations; we emit the actual tree-based pattern (2·log(cluster size)
supersteps of degree <= 2, cf. Jájá '92) so Lemma 5.1's superstep
accounting — O(1) k-supersteps of degree O(2^k h_s(n,2^k)/p) plus
O(log p) k-supersteps of constant degree per iteration — is reproduced
faithfully and measurable from the output trace.
"""

from __future__ import annotations

import numpy as np

from repro.machine.folding import fold_trace
from repro.machine.program import ScheduleBuilder
from repro.machine.trace import Trace
from repro.util.intmath import ilog2

__all__ = ["ascend_descend_trace", "rebalance_superstep"]


def _spread_round_robin(
    ids: np.ndarray, cluster: np.ndarray, cluster_size: int
) -> np.ndarray:
    """Assign each message an even holder within its cluster.

    ``ids`` are message indices (used only for deterministic ordering),
    ``cluster`` the cluster id of each message; returns the new holder
    processor for each message: cluster_start + (position within cluster
    mod cluster_size), i.e. at most ``ceil(m_c / cluster_size)`` messages
    per processor of a cluster holding ``m_c`` messages.
    """
    order = np.argsort(cluster, kind="stable")
    sorted_cluster = cluster[order]
    # Position of each message within its cluster group.
    if sorted_cluster.size == 0:
        return np.empty(0, dtype=np.int64)
    boundaries = np.flatnonzero(np.diff(sorted_cluster)) + 1
    starts = np.concatenate(([0], boundaries))
    group_start = np.repeat(starts, np.diff(np.concatenate((starts, [len(sorted_cluster)]))))
    pos_in_group = np.arange(len(sorted_cluster)) - group_start
    new_holder_sorted = sorted_cluster * cluster_size + pos_in_group % cluster_size
    out = np.empty_like(new_holder_sorted)
    out[order] = new_holder_sorted
    return out


def _prefix_supersteps(out: ScheduleBuilder, p: int, k: int) -> None:
    """Emit the tree-based prefix pattern within every k-cluster.

    Up-sweep then down-sweep over a binary tree on the cluster's
    processors: ``2 * log2(p/2^k)`` supersteps of label ``k``, each of
    degree <= 1 per processor — Lemma 5.1's "O(log p) k-supersteps each of
    constant degree".  All clusters run their trees in the same supersteps.
    """
    csize = p >> k
    depth = ilog2(csize)
    ranks = np.arange(p, dtype=np.int64)
    base = (ranks // csize) * csize
    local = ranks - base
    # Up-sweep: at step d, local index t*2^{d+1} + 2^d sends to t*2^{d+1}.
    for d in range(depth):
        stride = 1 << (d + 1)
        senders = local % stride == (1 << d)
        src = ranks[senders]
        dst = base[senders] + (local[senders] - (1 << d))
        out.superstep(k, src, dst)
    # Down-sweep: mirror pattern.
    for d in range(depth - 1, -1, -1):
        stride = 1 << (d + 1)
        receivers = local % stride == (1 << d)
        dst = ranks[receivers]
        src = base[receivers] + (local[receivers] - (1 << d))
        out.superstep(k, src, dst)


def rebalance_superstep(
    out: ScheduleBuilder,
    p: int,
    label: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    include_prefix: bool = True,
) -> None:
    """Record the ascend–descend expansion of one i-superstep into ``out``.

    ``src``/``dst`` are processor-level endpoints on ``M(p)`` (message
    pairs with ``src == dst`` are ignored: they are local).  The emitted
    supersteps carry labels in ``[label, log p)`` only, as Lemma 5.1
    requires.
    """
    logp = ilog2(p)
    keep = src != dst
    holders = src[keep].astype(np.int64).copy()
    dest = dst[keep].astype(np.int64)

    if holders.size == 0:
        # Still a synchronisation: the original superstep happens (empty).
        out.superstep(label, holders, dest)
        return

    # ----- ascend: k = logp-1 down to label+1 ------------------------------
    for k in range(logp - 1, label, -1):
        csize = p >> k
        hc = holders // csize  # k-cluster of current holder
        dc = dest // csize
        outbound = hc != dc
        if include_prefix:
            _prefix_supersteps(out, p, k)
        if not outbound.any():
            out.superstep(k, np.empty(0, np.int64), np.empty(0, np.int64))
            continue
        idx = np.flatnonzero(outbound)
        new_holder = _spread_round_robin(idx, hc[idx], csize)
        moved = new_holder != holders[idx]
        out.superstep(k, holders[idx][moved], new_holder[moved])
        holders[idx] = new_holder

    # ----- descend: k = label up to logp-1 ---------------------------------
    # At iteration k only the messages not yet inside their destination's
    # (k+1)-cluster move; such messages cross a (k+1)-cluster boundary, so
    # at the 2^{k+1}-fold they are inbound messages of that cluster and
    # their count per cluster is bounded by h_s(n, 2^{k+1}) — this is what
    # yields Lemma 5.1's O(2^{k+1} h_s(n,2^{k+1})/p) degree.
    for k in range(label, logp):
        subsize = p >> (k + 1)  # size of a (k+1)-cluster (1 when k+1 = logp)
        target_sub = dest // subsize  # (k+1)-cluster containing destination
        part = holders // subsize != target_sub
        if include_prefix:
            _prefix_supersteps(out, p, k)
        if part.any():
            idx = np.flatnonzero(part)
            new_holder = _spread_round_robin(idx, target_sub[idx], subsize)
            moved = new_holder != holders[idx]
            out.superstep(k, holders[idx][moved], new_holder[moved])
            holders[idx] = new_holder
        else:
            out.superstep(k, np.empty(0, np.int64), np.empty(0, np.int64))

    if not np.array_equal(holders, dest):  # pragma: no cover - invariant
        raise AssertionError("ascend-descend failed to deliver all messages")


def ascend_descend_trace(
    trace: Trace, p: int, *, include_prefix: bool = True
) -> Trace:
    """Execute a network-oblivious trace on ``M(p)`` via ascend–descend.

    Folds the specification-level trace onto ``p`` processors, then
    replaces each surviving i-superstep by its balanced transport schedule.
    The result is itself a static trace on ``M(p)`` (the algorithm
    ``A-tilde`` of Theorem 5.3's proof) whose metrics can be evaluated on
    any ``M(p', sigma)`` or ``D-BSP(p', g, ell)`` with ``p' <= p``.
    """
    folded = fold_trace(trace, p)
    out = ScheduleBuilder(p)
    for s in range(folded.num_supersteps):
        label, src, dst = folded.superstep(s)  # zero-copy views
        rebalance_superstep(out, p, label, src, dst, include_prefix=include_prefix)
    return out.build()
