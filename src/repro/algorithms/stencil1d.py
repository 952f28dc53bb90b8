"""Network-oblivious (n,1)-stencil computation (Section 4.4.1, Figure 1).

The (n,1)-stencil problem evaluates an ``n x n`` grid DAG: node
``(x, t)`` (cell x at timestep t) feeds ``(x + delta, t + 1)`` for
``delta in {0, +-1}``; row ``t = 0`` is the input.  The paper reduces it
to *diamond DAG* evaluations: in the rotated coordinates

    ``u = x + t``,   ``w = x - t + (n - 1)``,

dependencies flow from smaller-or-equal ``u`` / larger-or-equal ``w``
(preds of ``(u, w)`` sit at ``(u-2, w), (u-1, w+1), (u, w+2)``), a diamond
of side ``m`` is an axis-aligned ``(2m-1) x (2m-1)`` box, and the square
grid splits into **five full or truncated diamonds** evaluated in order:

    BL (x+t < n/2),  BR (x-t >= n/2),  C (the centre diamond),
    TL (t-x >= n/2),  TR (x+t > 2(n-1) - n/2).

Each diamond is evaluated by the recursive stripe decomposition of
Figure 1: with ``k = 2^{ceil(sqrt(log n))}``, the bounding box splits
into ``k x k`` sub-boxes grouped into ``2k - 1`` anti-diagonal stripes;
stripe ``r``'s sub-diamonds are evaluated in parallel by the ``k``
disjoint VP sub-segments, each phase opening with an input-routing
superstep of the *parent* level's label (``(i-1) log k`` at level ``i``)
that delivers every cross-boundary predecessor value directly to the VP
that will consume it.  When the sub-box side drops below ``k`` the
diamond is evaluated by a wavefront of ``2 n_tau - 1`` supersteps of
label ``tau log k`` (each VP owning a bounded number of ``u``-columns).

The schedule is static (it depends on ``n`` and ``k`` only), so emission
is index arithmetic.  Owners are painted before any phase is emitted, so
no phase's geometry depends on the one before it: each recursion level
builds the sub-boxes of all its ``2k - 1`` phases in one pass, every box
as whole-array (task, row, x) node indices, and the three predecessor
deltas become masks.  Every arc is keyed by its superstep's place in the
schedule (the phase path, then the pred superstep or the local row), one
stable sort orders them, and a stage is recorded as one batch, with each
superstep's wiseness multiplicity taken by a segmented max.  Values are
not computed during emission: afterwards one row sweep of
``rule(left, centre, right)`` fills the grid, so ``rule`` must be
elementwise.

Theorem 4.11: ``H_1-stencil(n, p, sigma) = O(n * 4^{sqrt(log n)})`` for
``sigma = O(n/p)`` — within a ``4^{sqrt(log n)}`` factor of Lemma 4.10's
``Omega(n)`` bound; Corollary 4.12 transfers this to admissible D-BSPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms._common import AlgorithmResult, wiseness_dummies
from repro.core.theory import stencil_k
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2

__all__ = ["run", "evaluate_diamond", "Stencil1DResult", "DiamondResult", "heat_rule"]


def heat_rule(left: np.ndarray, centre: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Default stencil update: three-point average (explicit heat step)."""
    return (left + centre + right) / 3.0


@dataclass
class Stencil1DResult(AlgorithmResult):
    """Result of the 5-stage (n,1)-stencil evaluation."""

    grid: np.ndarray = None  # grid[t, x]: every node value
    final: np.ndarray = None  # grid[n-1]
    stages: int = 5


@dataclass
class DiamondResult(AlgorithmResult):
    """Result of a single diamond-DAG evaluation (Theorem 4.11's object)."""

    grid: np.ndarray = None
    k: int = 0
    phases_per_level: int = 0  # 2k - 1 (Figure 1)


class _Ctx:
    """Geometry of one stencil evaluation.

    The owner array (``owner[t, x]`` is the VP evaluating node (x, t)), the
    stage's per-row x-interval and the schedule builder the supersteps are
    emitted into.  Every query is array-valued: :meth:`nodes` expands a
    whole level of boxes into its (task, row, x) nodes in one pass, so no
    Python loop runs over tasks or rows.  Values are not part of the
    geometry; :func:`_sweep` computes them after emission.
    """

    def __init__(self, machine, owner, wise, k):
        self.machine = machine  # the ScheduleBuilder recording the supersteps
        self.owner = owner
        self.wise = wise
        self.k = k
        self.nt, self.nx = owner.shape
        self.noff = self.nx - 1  # w = x - t + noff
        # Stage region (who is evaluated *now*): per-row x-interval, taking
        # and returning arrays.  Predecessor *messages* are stage-local
        # (earlier stages were delivered at stage opening).
        self.row_interval: Callable = lambda t: (0, -1)

    def label_for(self, seg_size: int) -> int:
        v = self.machine.v
        return ilog2(v // seg_size) if seg_size < v else 0

    # -- geometry ------------------------------------------------------
    def box_interval(self, t, u0, w0, ext: int):
        """x-interval of box ``u in [u0, u0+ext), w in [w0, w0+ext)`` at row t,
        intersected with the current stage region and the global grid."""
        lo, hi = self.row_interval(t)
        lo = np.maximum(np.maximum(lo, u0 - t), np.maximum(w0 - self.noff + t, 0))
        hi = np.minimum(
            np.minimum(hi, u0 + ext - 1 - t),
            np.minimum(w0 + ext - 1 - self.noff + t, self.nx - 1),
        )
        return lo, hi

    def t_range(self, u0, w0, ext: int):
        """Global time rows intersecting the box (clipped to the grid)."""
        t_lo = np.maximum(0, (u0 - (w0 + ext - 1) + self.noff + 1) // 2)
        t_hi = np.minimum(self.nt - 1, (u0 + ext - 1 - w0 + self.noff) // 2)
        return t_lo, t_hi

    def nodes(self, u0: np.ndarray, w0: np.ndarray, ext: int):
        """Every node of the boxes as ``(task, t, x, row)`` arrays, ordered
        by task, then t, then x; ``row`` numbers the (task, t) rows."""
        t_lo, t_hi = self.t_range(u0, w0, ext)
        task, t = _members(t_lo, t_hi)
        lo, hi = self.box_interval(t, u0[task], w0[task], ext)
        row, x = _members(lo, hi)
        return task[row], t[row], x, row


def _members(lo: np.ndarray, hi: np.ndarray):
    """Expand intervals ``[lo_i, hi_i]`` (empty when ``lo_i > hi_i``) into
    ``(i, value)`` arrays, interval by interval and ascending inside."""
    cnt = np.maximum(hi - lo + 1, 0)
    idx = np.repeat(np.arange(cnt.size), cnt)
    start = np.cumsum(cnt) - cnt
    return idx, lo[idx] + (np.arange(idx.size) - start[idx])


def _split(tasks, a: np.ndarray, b: np.ndarray, sub_P: int, L: int):
    """Sub-boxes ``(a, b)`` of every box, box by box: VP segment
    ``seg + a*sub_P`` and corner ``(u0 + a*L, w0 + b*L)``."""
    seg, u0, w0 = tasks
    return (
        (seg[:, None] + a * sub_P).ravel(),
        (u0[:, None] + a * L).ravel(),
        (w0[:, None] + b * L).ravel(),
    )


#: Predecessor offsets ``(dx, du, dw)`` of a node, in emission order.
_DELTAS = ((-1, -2, 0), (0, -1, 1), (1, 0, 2))


def _pred_arcs(ctx: _Ctx, t, x, key, pred_interval, select=None):
    """Arcs ``owner[t-1, x+dx] -> owner[t, x]`` into nodes of rows t >= 1.

    A predecessor is kept when it lies in ``pred_interval(t - 1)`` (clipped
    to the grid) and, if given, ``select(pu, pw)`` holds at its rotated
    coordinates.  The nodes of one ``key`` must come with x ascending; one
    stable sort on (key, delta) then orders the arcs by key, predecessor
    delta and x.  Returns ``(src, dst, node)`` in that order, ``node``
    indexing the consuming node in ``t`` / ``x``.
    """
    plo, phi = pred_interval(t - 1)
    plo, phi = np.maximum(plo, 0), np.minimum(phi, ctx.nx - 1)
    own = ctx.owner[t, x]
    u, w = x + t, x - t + ctx.noff
    node = np.arange(t.size)
    srcs, dsts, keys, nodes = [], [], [], []
    for d, (dx, du, dw) in enumerate(_DELTAS):
        px = x + dx
        sel = (px >= plo) & (px <= phi)
        if select is not None:
            sel &= select(u + du, w + dw)
        srcs.append(ctx.owner[t[sel] - 1, px[sel]])
        dsts.append(own[sel])
        keys.append(key[sel] * 3 + d)
        nodes.append(node[sel])
    order = np.argsort(np.concatenate(keys), kind="stable")
    return (
        np.concatenate(srcs)[order],
        np.concatenate(dsts)[order],
        np.concatenate(nodes)[order],
    )


def _paint(ctx: _Ctx, tasks, P: int, m: int) -> None:
    """Assign owners: VP ``seg + (u - u0) // (2m/P)`` owns node (x, t)."""
    k = ctx.k
    while not (m <= k or P <= k):
        a = np.repeat(np.arange(k), k)
        tasks = _split(tasks, a, np.tile(np.arange(k), k), P // k, 2 * (m // k))
        P, m = P // k, m // k
    seg, u0, w0 = tasks
    cols = max(1, (2 * m) // P)
    task, t, x, _ = ctx.nodes(u0, w0, 2 * m)
    ctx.owner[t, x] = seg[task] + (x + t - u0[task]) // cols


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    # Not np.unique: its first call in a process adds ~1.5 MB to peak RSS
    # (numpy 2.4).
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _max_degree(step, ends, num_steps: int, v: int) -> np.ndarray:
    """Per superstep, the most arcs one VP of ``ends`` takes part in
    (0 for a superstep without arcs): a segmented max of run lengths."""
    out = np.zeros(num_steps, dtype=np.int64)
    if ends.size:
        pair = np.sort(step * v + ends)
        first = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))
        runs = np.diff(np.append(first, pair.size))
        np.maximum.at(out, pair[first] // v, runs)
    return out


def _emit(ctx: _Ctx, labels: np.ndarray, step, src, dst) -> None:
    """Record one superstep per entry of ``labels``.

    Superstep ``s`` carries, in order, the arcs with ``step == s``
    (``step`` ascending) whose endpoints are distinct VPs; with ``wise``
    the wiseness dummies follow them.
    """
    v = ctx.machine.v
    move = src != dst
    step, src, dst = step[move], src[move], dst[move]
    S = labels.size
    real = np.bincount(step, minlength=S)
    mult = np.zeros(S, dtype=np.int64)
    if ctx.wise:
        # "Suitable dummy messages are added in each superstep to make each
        # VP exchange the same number of messages" (Sec. 4.4.1): match the
        # superstep's actual maximum degree.
        mult = np.maximum(
            np.maximum(_max_degree(step, src, S, v), _max_degree(step, dst, S, v)), 1
        )
    dummies, dummy_src, dummy_dst = wiseness_dummies(v, labels, mult)
    offsets = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(real + dummies, out=offsets[1:])
    out_src = np.empty(offsets[-1], dtype=np.int64)
    out_dst = np.empty(offsets[-1], dtype=np.int64)
    # Superstep s: its arcs after every message of the supersteps before
    # it, then its dummies.
    pos = np.arange(step.size) + (np.cumsum(dummies) - dummies)[step]
    out_src[pos], out_dst[pos] = src, dst
    pos = np.arange(dummy_src.size) + np.cumsum(real)[np.repeat(np.arange(S), dummies)]
    out_src[pos], out_dst[pos] = dummy_src, dummy_dst
    ctx.machine.supersteps(labels, offsets, out_src, out_dst)


def _eval_box(ctx: _Ctx, tasks, P: int, m: int, src, dst) -> None:
    """Record a label-0 superstep carrying ``src -> dst``, then the
    recursive stripe-phase evaluation (Figure 1) of the boxes.

    All phases of a level are built in one pass.  Every box splits into
    its ``k x k`` sub-boxes; sub-box ``(a, b)`` belongs to stripe phase
    ``r = a + k - 1 - b`` and opens with that phase's pred superstep of
    the box's label.  Below the last level, each local row ``rho`` of the
    boxes of one phase path that holds nodes is a superstep of the
    base label.  A superstep's key is its place in this depth-first
    order: the digits ``r + 1`` of its phase path, most significant
    first, then 0 for a pred superstep or ``rho + 1`` for a row; the
    opening superstep's key is 0.
    """
    k = ctx.k
    depth, mb, Pb = 0, m, P
    while not (mb <= k or Pb <= k):
        depth, mb, Pb = depth + 1, mb // k, Pb // k
    radix = max(2 * k - 1, 2 * mb) + 1
    unit = radix**depth
    a, b = np.repeat(np.arange(k), k), np.tile(np.arange(k), k)
    digit = a + k - b  # phase r = a + k - 1 - b, as digit r + 1
    pos = np.zeros(1, dtype=np.int64)  # each task's key: its phase-path digits
    step_keys, step_labels = [np.zeros(1, np.int64)], [np.zeros(1, np.int64)]
    arc_src, arc_dst, arc_key = [src], [dst], [np.zeros(src.size, np.int64)]
    for _ in range(depth):
        sub_m, sub_P, L = m // k, P // k, 2 * (m // k)
        # Sub-boxes by phase path, then parent, then a: each phase's
        # sub-boxes in the order the parents and their stripes list them.
        sub_pos = (pos[:, None] + digit * unit).ravel()
        order = np.argsort(sub_pos, kind="stable")
        parent = order // (k * k)
        sub = tuple(c[order] for c in _split(tasks, a, b, sub_P, L))
        sub_pos = sub_pos[order]
        # Pred messages: predecessor values produced outside each sub-box
        # but inside its parent box (preds beyond the parent were routed
        # at an earlier phase), delivered to the VPs consuming them.
        _, u0, w0 = tasks
        task, t, x, row = ctx.nodes(sub[1], sub[2], 2 * sub_m)
        live = t > 0
        task, t, x, row = task[live], t[live], x[live], row[live]
        bu, bw = sub[1][task], sub[2][task] + 2 * sub_m
        pu_lo, pw_hi = u0[parent[task]], w0[parent[task]] + 2 * m

        def select(pu, pw):
            return ((pu < bu) | (pw >= bw)) & (pu >= pu_lo) & (pw < pw_hi)

        src, dst, node = _pred_arcs(ctx, t, x, row, ctx.row_interval, select)
        arc_src.append(src)
        arc_dst.append(dst)
        arc_key.append(sub_pos[task[node]])
        # One pred superstep per phase, even an empty one.
        step_keys.append(_sorted_unique(sub_pos))
        step_labels.append(np.full(step_keys[-1].size, ctx.label_for(P)))
        tasks, pos, P, m = sub, sub_pos, sub_P, sub_m
        unit //= radix

    # Wavefront evaluation of side-<=k diamonds: local row rho of every box
    # of one phase path shares a superstep; its messages are the in-box,
    # current-stage preds crossing VP owners (earlier-stage preds arrived
    # at the stage-opening superstep).
    _, u0, w0 = tasks
    task, t, x, row = ctx.nodes(u0, w0, 2 * m)
    live = t > 0  # t == 0 rows are inputs: values preassigned, no evaluation
    task, t, x, row = task[live], t[live], x[live], row[live]
    key = pos[task] + t - ctx.t_range(u0, w0, 2 * m)[0][task] + 1
    bu, bw = u0[task], w0[task] + 2 * m
    src, dst, node = _pred_arcs(
        ctx, t, x, row, ctx.row_interval, lambda pu, pw: (pu >= bu) & (pw < bw)
    )
    arc_src.append(src)
    arc_dst.append(dst)
    arc_key.append(key[node])
    # One superstep per local row holding nodes.
    step_keys.append(_sorted_unique(key))
    step_labels.append(np.full(step_keys[-1].size, ctx.label_for(P)))

    keys = np.concatenate(step_keys)
    order = np.argsort(keys)
    keys, labels = keys[order], np.concatenate(step_labels)[order]
    arc_key = np.concatenate(arc_key)
    order = np.argsort(arc_key, kind="stable")
    _emit(
        ctx,
        labels,
        np.searchsorted(keys, arc_key[order]),
        np.concatenate(arc_src)[order],
        np.concatenate(arc_dst)[order],
    )


def _sweep(grid: np.ndarray, rule: Callable, fill: float, interval) -> None:
    """Fill rows ``1..`` of ``grid`` in one row sweep.

    Node (x, t) for x in ``interval(t)`` gets ``rule(left, centre, right)``
    of row ``t - 1``, with ``fill`` for predecessors outside
    ``interval(t - 1)``.  ``rule`` is applied to whole row slices, so it
    must be elementwise.
    """
    nx = grid.shape[1]
    x = np.arange(nx)
    for t in range(1, grid.shape[0]):
        plo, phi = interval(t - 1)
        prev = np.full(nx + 2, fill, dtype=float)  # prev[x + 1]: row t-1 at x
        ok = (x >= plo) & (x <= phi)
        prev[1:-1][ok] = grid[t - 1][ok]
        lo, hi = interval(t)
        grid[t, lo : hi + 1] = rule(
            prev[lo : hi + 1], prev[lo + 1 : hi + 2], prev[lo + 2 : hi + 3]
        )


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def _stage_regions(n: int):
    """The five-stage partition (region name, row-interval fn, box).

    ``h = n/2``; boxes are (u0, w0, half-side m) with extent 2m = n.
    Regions are x-intervals per row t (array-valued); together they tile
    the grid and respect the dependency order BL, BR, C, TL, TR.
    """
    h = n // 2
    noff = n - 1
    return [
        ("BL", lambda t: (0, h - 1 - t), (0, noff - (h - 1) - 1, h)),
        ("BR", lambda t: (h + t, n - 1), (h - 1, 2 * h, h)),
        ("C", lambda t: (np.maximum(h - t, t - (h - 1)),
                         np.minimum(h - 1 + t, noff + h - 1 - t)),
         (h - 1, h - 1, h)),
        ("TL", lambda t: (0, t - h), (h - 1, -h, h)),
        ("TR", lambda t: (2 * noff - (h - 1) - t, n - 1), (2 * h - 1, h - 1, h)),
    ]


def _box_task(u0: int, w0: int):
    """A one-box task list: VP segment 0, corner (u0, w0)."""
    return (np.zeros(1, np.int64), np.array([u0], np.int64), np.array([w0], np.int64))


def run(
    x0: np.ndarray,
    *,
    rule: Callable = heat_rule,
    fill: float = 0.0,
    wise: bool = True,
    k: int | None = None,
) -> Stencil1DResult:
    """Evaluate ``n`` timesteps of a 3-point stencil on ``n`` cells.

    ``x0`` (power-of-two length ``n``) is row ``t = 0``; rows
    ``1..n-1`` are computed as ``rule(left, centre, right)`` with ``fill``
    substituted at the grid edges.  ``rule`` must be elementwise (it is
    applied to whole row slices).  The communication follows the paper's
    five-diamond decomposition on ``M(n)``; ``grid`` is the sequential row
    sweep those messages realise.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    ilog2(n)
    if n < 4:
        raise ValueError("need n >= 4")
    kk = k if k is not None else stencil_k(n)
    builder = ScheduleBuilder(n)
    owner = np.zeros((n, n), dtype=np.int64)
    ctx = _Ctx(builder, owner, wise, kk)

    prev_regions = []
    for name, interval, (u0, w0, m) in _stage_regions(n):
        ctx.row_interval = interval
        task = _box_task(u0, w0)
        _paint(ctx, task, n, m)
        # Stage-opening 0-superstep: inputs (row 0 holders = VP x) and
        # cross-stage predecessor values, delivered to consuming owners.
        _, t, x, row = ctx.nodes(task[1], task[2], 2 * m)
        first = t == 0
        # row-0 nodes of this stage: value moves from its initial VP.
        srcs, dsts = [x[first]], [owner[0, x[first]]]
        # preds computed in earlier stages.
        t, x, row = t[~first], x[~first], row[~first]
        for prev_interval in prev_regions:
            s, d, _ = _pred_arcs(ctx, t, x, row, prev_interval)
            srcs.append(s)
            dsts.append(d)
        _eval_box(ctx, task, n, m, np.concatenate(srcs), np.concatenate(dsts))
        prev_regions.append(interval)

    grid = np.full((n, n), np.nan)
    grid[0] = x0
    _sweep(grid, rule, fill, lambda t: (0, n - 1))
    return Stencil1DResult.from_schedule(
        builder.build(), n, grid=grid, final=grid[n - 1].copy()
    )


def evaluate_diamond(
    n: int,
    *,
    seed: float = 1.0,
    rule: Callable = heat_rule,
    fill: float = 0.0,
    wise: bool = True,
    k: int | None = None,
) -> DiamondResult:
    """Evaluate one full diamond DAG of side ``n`` on ``M(n)``.

    This is the object Theorem 4.11's analysis centres on ("let us then
    concentrate on the communication complexity for one diamond DAG
    evaluation").  The diamond is embedded in a ``(2n-1)``-cell grid; its
    bottom node ``(n-1, 0)`` is the single input (value ``seed``), and
    nodes whose predecessors fall outside the diamond use ``fill``.
    ``rule`` must be elementwise, as in :func:`run`.
    """
    ilog2(n)
    if n < 2:
        raise ValueError("need n >= 2")
    kk = k if k is not None else stencil_k(n)
    nx = 2 * n - 1
    builder = ScheduleBuilder(n)
    owner = np.zeros((nx, nx), dtype=np.int64)
    ctx = _Ctx(builder, owner, wise, kk)

    # Diamond of side n centred at x = n-1: |x - (n-1)| <= min(t, 2(n-1)-t).
    def diamond(t):
        half = np.minimum(t, 2 * (n - 1) - t)
        return (n - 1) - half, (n - 1) + half

    ctx.row_interval = diamond
    # Box covering the diamond: u, w both span [n-1, 3n-3] (extent 2n).
    task = _box_task(n - 1, n - 1)
    _paint(ctx, task, n, n)
    # Input superstep: the seed moves from VP n-1 to its owner.
    _eval_box(ctx, task, n, n, np.array([n - 1]), owner[0, n - 1 : n])
    grid = np.full((nx, nx), np.nan)
    grid[0, n - 1] = seed
    _sweep(grid, rule, fill, diamond)
    return DiamondResult.from_schedule(
        builder.build(), n, grid=grid, k=kk, phases_per_level=2 * kk - 1
    )


# ----------------------------------------------------------------------
# Registry spec (repro.api): n cells evaluated for n timesteps.
# ----------------------------------------------------------------------
from repro.api.registry import AlgorithmSpec, register  # noqa: E402


def _api_check(n: int, *, wise: bool = True, k: int | None = None) -> None:
    if n < 4 or n & (n - 1):
        raise ValueError(f"(n,1)-stencil needs power-of-two n >= 4, got n={n}")


def _api_emit(n: int, rng, *, wise: bool = True, k: int | None = None):
    x0 = rng.random(n)
    result = run(x0, wise=wise, k=k)
    result.oracle_input = x0  # adapt runs the row sweep lazily
    return result


def _api_adapt(result: Stencil1DResult) -> dict:
    x0 = getattr(result, "oracle_input", None)
    if x0 is None:  # result not emitted through the registry
        return {}
    # Sequential row sweep with the default rule/fill the registry emits.
    n = x0.shape[0]
    row = np.asarray(x0, dtype=float)
    for _t in range(1, n):
        left = np.concatenate(([0.0], row[:-1]))
        right = np.concatenate((row[1:], [0.0]))
        row = heat_rule(left, row, right)
    return {"correct": bool(np.allclose(result.final, row))}


register(
    AlgorithmSpec(
        name="stencil1d",
        summary="(n,1)-stencil via the five-diamond decomposition",
        kind="oblivious",
        section="4.4.1",
        emit=_api_emit,
        check=_api_check,
        adapt=_api_adapt,
        default_sizes=(16, 64, 256),
    )
)
