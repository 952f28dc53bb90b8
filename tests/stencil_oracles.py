"""Loop-based stencil emitters, kept as test oracles.

These are the per-task, per-row emitters that :mod:`repro.algorithms.stencil1d`
and :mod:`repro.algorithms.stencil2d` used before emission became whole-array
index arithmetic (stencil1d) and one replicated stage (stencil2d).  They
compute values inside the geometry loops and record every stage separately;
the production emitters must reproduce their schedules column for column and
their grids NaN-aware exactly.  ``run`` and ``evaluate_diamond`` return
``(schedule, grid)``; ``generate`` returns the schedule.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.algorithms._common import SendBuffer, add_wiseness_dummies
from repro.algorithms.stencil1d import heat_rule
from repro.algorithms.stencil2d import STAGES
from repro.core.theory import stencil_k
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2

__all__ = ["run", "evaluate_diamond", "generate"]


# ----------------------------------------------------------------------
# stencil1d: run / evaluate_diamond
# ----------------------------------------------------------------------

class _Ctx:
    """Shared state of one stencil evaluation.

    ``grid_t x grid_x`` value and owner arrays, the stencil rule, the
    stage's per-row x-interval function, and the schedule builder the
    supersteps are emitted into.
    """

    def __init__(self, machine, grid, owner, rule, fill, wise, k):
        self.machine = machine  # the ScheduleBuilder recording the supersteps
        self.grid = grid
        self.owner = owner
        self.rule = rule
        self.fill = fill
        self.wise = wise
        self.k = k
        self.nx = grid.shape[1]
        self.noff = self.nx - 1  # w = x - t + noff
        # Stage region (who is evaluated *now*): per-row x-interval.
        self.row_interval: Callable[[int], tuple[int, int]] = lambda t: (0, -1)
        # Global DAG region (which nodes exist at all): per-row x-interval.
        # Predecessor *values* are read against this; predecessor *messages*
        # are stage-local (earlier stages were delivered at stage opening).
        self.global_interval: Callable[[int], tuple[int, int]] = lambda t: (
            0,
            self.nx - 1,
        )

    def label_for(self, seg_size: int) -> int:
        v = self.machine.v
        return ilog2(v // seg_size) if seg_size < v else 0

    # -- geometry ------------------------------------------------------
    def box_interval(self, t: int, u0: int, w0: int, ext: int) -> tuple[int, int]:
        """x-interval of box ``u in [u0, u0+ext), w in [w0, w0+ext)`` at row t,
        intersected with the current stage region and the global grid."""
        lo, hi = self.row_interval(t)
        lo = max(lo, u0 - t, w0 - self.noff + t, 0)
        hi = min(hi, u0 + ext - 1 - t, w0 + ext - 1 - self.noff + t, self.nx - 1)
        return lo, hi

    def t_range(self, u0: int, w0: int, ext: int) -> tuple[int, int]:
        """Global time rows intersecting the box (clipped to the grid)."""
        t_lo = max(0, (u0 - (w0 + ext - 1) + self.noff + 1) // 2)
        t_hi = min(self.grid.shape[0] - 1, (u0 + ext - 1 - w0 + self.noff) // 2)
        return t_lo, t_hi


def _paint(ctx: _Ctx, tasks, P: int, m: int) -> None:
    """Assign owners: VP ``seg + (u - u0) // (2m/P)`` owns node (x, t)."""
    k = ctx.k
    if m <= k or P <= k:
        cols = max(1, (2 * m) // P)
        for seg, u0, w0 in tasks:
            t_lo, t_hi = ctx.t_range(u0, w0, 2 * m)
            for t in range(t_lo, t_hi + 1):
                lo, hi = ctx.box_interval(t, u0, w0, 2 * m)
                if lo > hi:
                    continue
                x = np.arange(lo, hi + 1)
                ctx.owner[t, lo : hi + 1] = seg + (x + t - u0) // cols
        return
    sub_m, sub_P, L = m // k, P // k, 2 * (m // k)
    sub = [
        (seg + a * sub_P, u0 + a * L, w0 + b * L)
        for seg, u0, w0 in tasks
        for a in range(k)
        for b in range(k)
    ]
    _paint(ctx, sub, sub_P, sub_m)


def _pred_messages(ctx: _Ctx, tasks, ext: int, *, outside_only_box=None):
    """Messages delivering predecessor values produced *outside* each
    task's box directly to the VPs that will consume them.

    ``outside_only_box``: when given (parent box per task), restrict to
    preds *inside* the parent box — preds beyond it were already routed at
    an earlier phase.
    """
    srcs, dsts = [], []
    for ti, (seg, u0, w0) in enumerate(tasks):
        t_lo, t_hi = ctx.t_range(u0, w0, ext)
        for t in range(t_lo, t_hi + 1):
            lo, hi = ctx.box_interval(t, u0, w0, ext)
            if lo > hi or t == 0:
                continue
            x = np.arange(lo, hi + 1)
            u = x + t
            w = x - t + ctx.noff
            own = ctx.owner[t, lo : hi + 1]
            for dx, du, dw in ((-1, -2, 0), (0, -1, 1), (1, 0, 2)):
                px = x + dx
                valid = (px >= 0) & (px < ctx.nx)
                # Pred exists at t-1 within the stage/global region.
                plo, phi = ctx.row_interval(t - 1)
                valid &= (px >= max(plo, 0)) & (px <= min(phi, ctx.nx - 1))
                pu, pw = u + du, w + dw
                outside = (pu < u0) | (pw >= w0 + ext)
                sel = valid & outside
                if outside_only_box is not None:
                    pu0, pw0, pext = outside_only_box[ti]
                    sel &= (pu >= pu0) & (pw < pw0 + pext)
                if sel.any():
                    srcs.append(ctx.owner[t - 1, px[sel]])
                    dsts.append(own[sel])
    if srcs:
        return np.concatenate(srcs), np.concatenate(dsts)
    return np.empty(0, np.int64), np.empty(0, np.int64)


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
    """Wavefront evaluation of side-<=k diamonds: 2m-1 row supersteps."""
    label = ctx.label_for(P)
    ext = 2 * m
    n_rows = ext  # local row index range (boxes are extent-2m half-open)
    ranges = [ctx.t_range(u0, w0, ext) for _, u0, w0 in tasks]
    for rho in range(n_rows):
        srcs, dsts = [], []
        any_nodes = False
        for (seg, u0, w0), (t_lo, t_hi) in zip(tasks, ranges):
            t = t_lo + rho
            if t > t_hi or t == 0:
                # t == 0 rows are inputs: values preassigned, no evaluation.
                continue
            lo, hi = ctx.box_interval(t, u0, w0, ext)
            if lo > hi:
                continue
            any_nodes = True
            x = np.arange(lo, hi + 1)
            prev = ctx.grid[t - 1]
            glo, ghi = ctx.global_interval(t - 1)
            glo, ghi = max(glo, 0), min(ghi, ctx.nx - 1)

            def pval(px):
                out = np.full(px.shape, ctx.fill, dtype=float)
                ok = (px >= glo) & (px <= ghi)
                out[ok] = prev[px[ok]]
                return out

            ctx.grid[t, lo : hi + 1] = ctx.rule(pval(x - 1), pval(x), pval(x + 1))
            # Row messages: in-box, current-stage preds crossing VP owners
            # (earlier-stage preds arrived at the stage-opening superstep).
            own = ctx.owner[t, lo : hi + 1]
            u, w = x + t, x - t + ctx.noff
            plo, phi = ctx.row_interval(t - 1)
            plo, phi = max(plo, 0), min(phi, ctx.nx - 1)
            for dx, du, dw in ((-1, -2, 0), (0, -1, 1), (1, 0, 2)):
                px = x + dx
                ok = (px >= plo) & (px <= phi)
                pu, pw = u + du, w + dw
                inside = (pu >= u0) & (pw < w0 + ext)
                sel = ok & inside
                if sel.any():
                    ps = ctx.owner[t - 1, px[sel]]
                    pd = own[sel]
                    diff = ps != pd
                    if diff.any():
                        srcs.append(ps[diff])
                        dsts.append(pd[diff])
        src = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
        dst = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
        if any_nodes or src.size:
            _emit(ctx, label, src, dst)


def _eval_box(ctx: _Ctx, tasks, P: int, m: int) -> None:
    """Recursive stripe-phase evaluation (Figure 1) of same-level boxes."""
    k = ctx.k
    if m <= k or P <= k:
        _eval_base(ctx, tasks, P, m)
        return
    sub_m, sub_P, L = m // k, P // k, 2 * (m // k)
    parent_label = ctx.label_for(P)
    for r in range(2 * k - 1):
        subtasks, parents = [], []
        for seg, u0, w0 in tasks:
            for a in range(max(0, r - (k - 1)), min(r, k - 1) + 1):
                b = k - 1 - (r - a)
                subtasks.append((seg + a * sub_P, u0 + a * L, w0 + b * L))
                parents.append((u0, w0, 2 * m))
        src, dst = _pred_messages(ctx, subtasks, 2 * sub_m, outside_only_box=parents)
        _emit(ctx, parent_label, src, dst)
        _eval_box(ctx, subtasks, sub_P, sub_m)


def _stage_regions(n: int):
    """The five-stage partition (region name, row-interval fn, box).

    ``h = n/2``; boxes are (u0, w0, half-side m) with extent 2m = n.
    Regions are x-intervals per row t; together they tile the grid and
    respect the dependency order BL, BR, C, TL, TR.
    """
    h = n // 2
    noff = n - 1
    return [
        ("BL", lambda t: (0, h - 1 - t), (0, noff - (h - 1) - 1, h)),
        ("BR", lambda t: (h + t, n - 1), (h - 1, 2 * h, h)),
        ("C", lambda t: (max(h - t, t - (h - 1)), min(h - 1 + t, noff + h - 1 - t)),
         (h - 1, h - 1, h)),
        ("TL", lambda t: (0, t - h), (h - 1, -h, h)),
        ("TR", lambda t: (2 * noff - (h - 1) - t, n - 1), (2 * h - 1, h - 1, h)),
    ]


def run(
    x0: np.ndarray,
    *,
    rule: Callable = heat_rule,
    fill: float = 0.0,
    wise: bool = True,
    k: int | None = None,
):
    """Evaluate ``n`` timesteps of a 3-point stencil on ``n`` cells.

    ``x0`` (power-of-two length ``n``) is row ``t = 0``; rows
    ``1..n-1`` are computed as ``rule(left, centre, right)`` with ``fill``
    substituted at the grid edges.  The evaluation follows the paper's
    five-diamond decomposition on ``M(n)``; ``grid`` matches a sequential
    row sweep exactly.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    ilog2(n)
    if n < 4:
        raise ValueError("need n >= 4")
    kk = k if k is not None else stencil_k(n)
    builder = ScheduleBuilder(n)
    grid = np.full((n, n), np.nan)
    grid[0] = x0
    owner = np.zeros((n, n), dtype=np.int64)
    ctx = _Ctx(builder, grid, owner, rule, fill, wise, kk)

    prev_regions = []
    for name, interval, (u0, w0, m) in _stage_regions(n):
        ctx.row_interval = interval
        task = [(0, u0, w0)]
        _paint(ctx, task, n, m)
        # Stage-opening 0-superstep: inputs (row 0 holders = VP x) and
        # cross-stage predecessor values, delivered to consuming owners.
        srcs, dsts = [], []
        # row-0 nodes of this stage: value moves from its initial VP.
        lo, hi = ctx.box_interval(0, u0, w0, 2 * m)
        if lo <= hi:
            x = np.arange(lo, hi + 1)
            srcs.append(x)
            dsts.append(ctx.owner[0, lo : hi + 1])
        # preds computed in earlier stages.
        for prev_interval in prev_regions:
            s, d = _cross_stage_messages(ctx, (u0, w0, 2 * m), prev_interval)
            srcs.append(s)
            dsts.append(d)
        _emit(ctx, 0, np.concatenate(srcs), np.concatenate(dsts))
        _eval_box(ctx, task, n, m)
        prev_regions.append(interval)

    return builder.build(), grid


def _cross_stage_messages(ctx: _Ctx, box, prev_interval):
    """Arcs from an earlier stage's nodes into the current stage."""
    u0, w0, ext = box
    srcs, dsts = [], []
    t_lo, t_hi = ctx.t_range(u0, w0, ext)
    for t in range(max(t_lo, 1), t_hi + 1):
        lo, hi = ctx.box_interval(t, u0, w0, ext)
        if lo > hi:
            continue
        x = np.arange(lo, hi + 1)
        own = ctx.owner[t, lo : hi + 1]
        plo, phi = prev_interval(t - 1)
        plo, phi = max(plo, 0), min(phi, ctx.nx - 1)
        for dx in (-1, 0, 1):
            px = x + dx
            sel = (px >= plo) & (px <= phi)
            if sel.any():
                srcs.append(ctx.owner[t - 1, px[sel]])
                dsts.append(own[sel])
    if srcs:
        return np.concatenate(srcs), np.concatenate(dsts)
    return np.empty(0, np.int64), np.empty(0, np.int64)


def evaluate_diamond(
    n: int,
    *,
    seed: float = 1.0,
    rule: Callable = heat_rule,
    fill: float = 0.0,
    wise: bool = True,
    k: int | None = None,
):
    """Evaluate one full diamond DAG of side ``n`` on ``M(n)``.

    This is the object Theorem 4.11's analysis centres on ("let us then
    concentrate on the communication complexity for one diamond DAG
    evaluation").  The diamond is embedded in a ``(2n-1)``-cell grid; its
    bottom node ``(n-1, 0)`` is the single input (value ``seed``), and
    nodes whose predecessors fall outside the diamond use ``fill``.
    """
    ilog2(n)
    if n < 2:
        raise ValueError("need n >= 2")
    kk = k if k is not None else stencil_k(n)
    nx = 2 * n - 1
    builder = ScheduleBuilder(n)
    grid = np.full((nx, nx), np.nan)
    owner = np.zeros((nx, nx), dtype=np.int64)
    ctx = _Ctx(builder, grid, owner, rule, fill, wise, kk)
    noff = ctx.noff
    # Diamond of side n centred at x = n-1: |x - (n-1)| <= min(t, 2(n-1)-t).
    ctx.row_interval = lambda t: (
        (n - 1) - min(t, 2 * (n - 1) - t),
        (n - 1) + min(t, 2 * (n - 1) - t),
    )
    ctx.global_interval = ctx.row_interval
    grid[0, n - 1] = seed
    # Box covering the diamond: u, w both span [n-1, 3n-3] (extent 2n).
    task = [(0, n - 1, n - 1)]
    _paint(ctx, task, n, n)
    # Input superstep: the seed moves from VP n-1 to its owner.
    _emit(ctx, 0, np.array([n - 1]), np.array([owner[0, n - 1]]))
    _eval_box(ctx, task, n, n)
    return builder.build(), grid


# ----------------------------------------------------------------------
# stencil2d: every stage recorded separately
# ----------------------------------------------------------------------

def _phase_superstep(machine, segs: np.ndarray, seg_size: int, label: int, wise: bool):
    """One phase-opening superstep: every VP of every active segment
    exchanges O(1) boundary messages across its sub-segment boundary."""
    offs = np.arange(seg_size, dtype=np.int64)
    half = seg_size // 2
    src = (segs[:, None] + offs[None, :]).ravel()
    dst = (segs[:, None] + ((offs + half) % seg_size)[None, :]).ravel()
    buf = SendBuffer()
    buf.add(src, dst)
    if wise:
        add_wiseness_dummies(buf, machine.v, label, 1)
    buf.flush(machine, label)


def _eval_polyhedron(machine, segs: np.ndarray, P: int, m: int, k: int, wise: bool):
    """Recursive stripe evaluation of same-level polyhedra (lockstep)."""
    v = machine.v
    if P <= 1:
        # Side-n_tau polyhedra on single VPs: pure local computation.
        return
    label = ilog2(v // P) if P < v else 0
    if m < k or P < k * k:
        # Base: side-m polyhedron evaluated straightforwardly in Theta(m)
        # wavefront supersteps of constant degree (paper: 2*n_tau - 1).
        for _ in range(max(1, 2 * m - 1)):
            _phase_superstep(machine, segs, P, label, wise)
        return
    sub_P = P // (k * k)
    for _r in range(4 * k - 3):
        _phase_superstep(machine, segs, P, label, wise)
        sub_segs = (
            segs[:, None] + np.arange(k * k, dtype=np.int64)[None, :] * sub_P
        ).ravel()
        _eval_polyhedron(machine, sub_segs, sub_P, m // k, k, wise)


def generate(n: int, *, k: int | None = None, wise: bool = True,
             stages: int = STAGES):
    """Generate the (n,2)-stencil superstep schedule on ``M(n^2)``.

    ``n`` must be a power of two.  ``stages`` defaults to the paper's 17
    polyhedra; reduce it (e.g. to 1) to study a single octahedron.
    Each stage is preceded by the paper's O(1) 0-supersteps of constant
    degree redistributing stage inputs.
    """
    ilog2(n)
    v = n * n
    kk = k if k is not None else stencil_k(n)
    builder = ScheduleBuilder(v)
    root = np.array([0], dtype=np.int64)
    levels = 0
    m = n
    while m >= kk and (v // (kk * kk) ** levels) >= kk * kk:
        levels += 1
        m //= kk
    for _stage in range(stages):
        # Stage-opening 0-superstep: O(1) messages per VP.
        _phase_superstep(builder, root, v, 0, wise)
        _eval_polyhedron(builder, root, v, n, kk, wise)
    return builder.build()
