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
is index arithmetic.  Only the recursion over the ``2k - 1`` stripe
phases is a Python loop.  Below a phase, every box's nodes are built
whole-array as (task, row, x) index arrays, and the three predecessor
deltas become masks; one stable sort on (row, delta) restores the
message order.  Values are not computed during emission: afterwards one
row sweep of ``rule(left, centre, right)`` fills the grid, so ``rule``
must be elementwise.

Theorem 4.11: ``H_1-stencil(n, p, sigma) = O(n * 4^{sqrt(log n)})`` for
``sigma = O(n/p)`` — within a ``4^{sqrt(log n)}`` factor of Lemma 4.10's
``Omega(n)`` bound; Corollary 4.12 transfers this to admissible D-BSPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms._common import AlgorithmResult, SendBuffer, add_wiseness_dummies
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
    whole phase of boxes into its (task, row, x) nodes in one pass, so no
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
    delta and x.  Returns ``(src, dst, key)`` in that order.
    """
    plo, phi = pred_interval(t - 1)
    plo, phi = np.maximum(plo, 0), np.minimum(phi, ctx.nx - 1)
    own = ctx.owner[t, x]
    u, w = x + t, x - t + ctx.noff
    srcs, dsts, keys = [], [], []
    for d, (dx, du, dw) in enumerate(_DELTAS):
        px = x + dx
        sel = (px >= plo) & (px <= phi)
        if select is not None:
            sel &= select(u + du, w + dw)
        srcs.append(ctx.owner[t[sel] - 1, px[sel]])
        dsts.append(own[sel])
        keys.append(key[sel] * 3 + d)
    keyd = np.concatenate(keys)
    order = np.argsort(keyd, kind="stable")
    return np.concatenate(srcs)[order], np.concatenate(dsts)[order], keyd[order] // 3


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


def _pred_messages(ctx: _Ctx, tasks, ext: int, parents):
    """Messages delivering predecessor values produced *outside* each
    task's box directly to the VPs that will consume them.

    ``parents`` (the ``(u0, w0)`` arrays and extent of each task's parent
    box) restricts them to preds *inside* the parent box — preds beyond it
    were already routed at an earlier phase.
    """
    _, u0, w0 = tasks
    task, t, x, row = ctx.nodes(u0, w0, ext)
    live = t > 0
    task, t, x, row = task[live], t[live], x[live], row[live]
    bu, bw = u0[task], w0[task] + ext
    pu0, pw0, pext = parents
    pu_lo, pw_hi = pu0[task], pw0[task] + pext

    def select(pu, pw):
        return ((pu < bu) | (pw >= bw)) & (pu >= pu_lo) & (pw < pw_hi)

    src, dst, _ = _pred_arcs(ctx, t, x, row, ctx.row_interval, select)
    return src, dst


def _emit(ctx: _Ctx, label: int, src, dst) -> None:
    buf = SendBuffer()
    move = src != dst
    src, dst = src[move], dst[move]
    buf.add(src, dst)
    if ctx.wise:
        # "Suitable dummy messages are added in each superstep to make each
        # VP exchange the same number of messages" (Sec. 4.4.1): match the
        # superstep's actual maximum degree.
        mult = 1
        if src.size:
            mult = int(
                max(
                    np.bincount(src, minlength=1).max(),
                    np.bincount(dst, minlength=1).max(),
                )
            )
        add_wiseness_dummies(buf, ctx.machine.v, label, mult)
    buf.flush(ctx.machine, label)


def _eval_base(ctx: _Ctx, tasks, P: int, m: int) -> None:
    """Wavefront evaluation of side-<=k diamonds: 2m-1 row supersteps.

    Local row ``rho`` of every box (global row ``t_lo + rho``) shares one
    superstep; its messages are the in-box, current-stage preds crossing
    VP owners (earlier-stage preds arrived at the stage-opening superstep).
    """
    label = ctx.label_for(P)
    ext = 2 * m
    _, u0, w0 = tasks
    task, t, x, _ = ctx.nodes(u0, w0, ext)
    live = t > 0  # t == 0 rows are inputs: values preassigned, no evaluation
    task, t, x = task[live], t[live], x[live]
    rho = t - ctx.t_range(u0, w0, ext)[0][task]
    bu, bw = u0[task], w0[task] + ext
    src, dst, key = _pred_arcs(
        ctx,
        t,
        x,
        rho * u0.size + task,
        ctx.row_interval,
        lambda pu, pw: (pu >= bu) & (pw < bw),
    )
    # One superstep per local row holding nodes.  Not np.unique: its first
    # call in a process adds ~1.5 MB to peak RSS (numpy 2.4).
    rhos = np.flatnonzero(np.bincount(rho))
    arc_rho = key // u0.size
    cuts_lo = np.searchsorted(arc_rho, rhos, side="left")
    cuts_hi = np.searchsorted(arc_rho, rhos, side="right")
    for lo, hi in zip(cuts_lo, cuts_hi):
        _emit(ctx, label, src[lo:hi], dst[lo:hi])


def _eval_box(ctx: _Ctx, tasks, P: int, m: int) -> None:
    """Recursive stripe-phase evaluation (Figure 1) of same-level boxes."""
    k = ctx.k
    if m <= k or P <= k:
        _eval_base(ctx, tasks, P, m)
        return
    sub_m, sub_P, L = m // k, P // k, 2 * (m // k)
    parent_label = ctx.label_for(P)
    _, u0, w0 = tasks
    for r in range(2 * k - 1):
        a = np.arange(max(0, r - (k - 1)), min(r, k - 1) + 1)
        subtasks = _split(tasks, a, k - 1 - (r - a), sub_P, L)
        parent = np.repeat(np.arange(u0.size), a.size)
        src, dst = _pred_messages(
            ctx, subtasks, 2 * sub_m, (u0[parent], w0[parent], 2 * m)
        )
        _emit(ctx, parent_label, src, dst)
        _eval_box(ctx, subtasks, sub_P, sub_m)


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
        _emit(ctx, 0, np.concatenate(srcs), np.concatenate(dsts))
        _eval_box(ctx, task, n, m)
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
    _emit(ctx, 0, np.array([n - 1]), np.array([owner[0, n - 1]]))
    _eval_box(ctx, task, n, n)
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
