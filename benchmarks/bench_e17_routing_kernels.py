"""E17 — routing-kernel throughput: vectorized vs per-message reference.

The E11 reality check routes every superstep of a folded trace on a
concrete topology.  Before the columnar routing engine, each message was
walked edge by edge in Python; now each superstep's endpoint batch goes
through one whole-array kernel (interval-delta cumsum / level-synchronous
ascent) and whole traces are routed in a single pass over their columnar
superstep ranges.  This bench times both paths on the same trace-scale
workload across every shipped topology, asserts they produce identical
totals, and doubles as the perf tripwire for ``BENCH_baseline.json``
(``record_baseline.py`` records the vectorized and reference seconds and
their ratio).  A second row times :class:`ValiantPolicy`'s whole-trace
draw against its per-superstep oracle, ``intermediates_reference``,
which hashes one message at a time in Python ints.
"""

import time

import numpy as np

from _util import emit_table
from repro.machine.folding import fold_trace
from repro.machine.program import ScheduleBuilder
from repro.machine.trace import Trace
from repro.networks import TOPOLOGIES, ValiantPolicy, by_name, route_trace
from repro.networks.routing import ROUTE_CACHE

#: Trace-scale workload: thousands of supersteps' worth of messages folded
#: onto a 64-processor machine — the regime where per-message Python
#: routing dominates E11-style sweeps.
SCALE = dict(v=512, supersteps=250, msgs=500, p=64)
QUICK = dict(v=128, supersteps=60, msgs=40, p=16)
#: A long sparse trace for the Valiant draw: many supersteps of a few
#: messages, the shape where a per-superstep draw pays most in call
#: overhead.  It is cheap, so ``--quick`` runs it at full size.
SPARSE = dict(v=1024, supersteps=2500, msgs=5, p=1024)


def make_trace(v: int, supersteps: int, msgs: int, seed: int = 17) -> Trace:
    """A legal random trace, drawn in one batch (cluster-respecting)."""
    rng = np.random.default_rng(seed)
    logv = int(np.log2(v))
    labels = rng.integers(0, logv, size=supersteps)
    src = rng.integers(0, v, size=(supersteps, msgs))
    shift = (logv - labels)[:, None]
    low = rng.integers(0, v, size=(supersteps, msgs)) & ((1 << shift) - 1)
    dst = (src >> shift << shift) | low
    builder = ScheduleBuilder(v)
    for s in range(supersteps):
        builder.superstep(int(labels[s]), src[s], dst[s])
    return builder.build()


#: Workloads are memoised per configuration so construction (the trace
#: recording loop, topology setup) stays outside every timed region —
#: ``record_baseline.py`` then measures the same pure-routing seconds the
#: in-test speedup assertion does.
_workloads: dict[tuple, tuple] = {}


def _workload(cfg):
    key = tuple(sorted(cfg.items()))
    if key not in _workloads:
        trace = make_trace(cfg["v"], cfg["supersteps"], cfg["msgs"])
        topos = [by_name(name, cfg["p"]) for name in TOPOLOGIES]
        _workloads[key] = (trace, topos)
    return _workloads[key]


def run_sweep(cfg=SCALE, workload=None):
    """Columnar path: route the whole trace on every topology."""
    ROUTE_CACHE.clear()  # a fresh trace defeats the memo anyway; be explicit
    trace, topos = workload if workload is not None else _workload(cfg)
    rows = []
    for topo in topos:
        prof = route_trace(trace, topo)
        rows.append(
            [
                topo.name,
                round(prof.total_time, 1),
                round(prof.max_congestion, 1),
                prof.max_dilation,
            ]
        )
    return rows


def run_sweep_reference(cfg=SCALE, workload=None):
    """Pre-engine path: per-message reference routers, superstep by superstep."""
    trace, topos = workload if workload is not None else _workload(cfg)
    rows = []
    for topo in topos:
        folded = fold_trace(trace, topo.p)
        caps = topo.edge_capacities()
        total = 0.0
        for s in range(folded.num_supersteps):
            _, src, dst = folded.superstep(s)
            if src.size == 0:
                total += 1.0
                continue
            loads, dil = topo.route_loads_reference(src, dst)
            total += float((loads / caps).max()) + dil + 1.0
        rows.append([topo.name, round(total, 1)])
    return rows


def test_e17_routing_kernels(benchmark, quick):
    cfg = QUICK if quick else SCALE

    def both():
        # One shared workload: both paths time pure routing, and the
        # valiant profile below reuses the same trace and topologies.
        workload = _workload(cfg)
        t0 = time.perf_counter()
        vec = run_sweep(cfg, workload)
        t_vec = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref = run_sweep_reference(cfg, workload)
        t_ref = time.perf_counter() - t0
        return workload, vec, ref, t_vec, t_ref

    workload, vec, ref, t_vec, t_ref = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    speedup = t_ref / t_vec if t_vec > 0 else float("inf")
    rows = [
        [v_row[0], v_row[1], r_row[1], v_row[2], v_row[3]]
        for v_row, r_row in zip(vec, ref)
    ]
    # A valiant profile on one topology, to exercise the policy path at scale.
    trace, topos = workload
    valiant = route_trace(trace, topos[0], ValiantPolicy(0))
    rows.append(["ring+valiant", round(valiant.total_time, 1), "-", "-", "-"])
    rows.append(["speedup", round(speedup, 1), "-", "-", "-"])
    emit_table(
        "e17_routing_kernels",
        f"E17  trace-scale routing: vectorized {t_vec:.3f}s vs reference "
        f"{t_ref:.3f}s ({speedup:.1f}x)",
        ["topology", "routed (vec)", "routed (ref)", "max cong", "max dil"],
        rows,
    )
    # The two paths must agree on every topology's total routed time.
    for v_row, r_row in zip(vec, ref):
        assert v_row[1] == r_row[1], (v_row[0], v_row[1], r_row[1])
    # Valiant's two phases cost more than direct routing but stay bounded.
    direct_ring = vec[0][1]
    assert direct_ring < valiant.total_time < 10 * direct_ring
    if not quick:
        # Acceptance floor for the columnar engine at trace scale.
        assert speedup >= 5.0, f"vectorized routing only {speedup:.1f}x faster"


def valiant_legs(cfg=SPARSE):
    """Valiant's legs of the folded sparse trace: the whole-trace draw."""
    folded, topo = _sparse(cfg)
    return ValiantPolicy(0).phase_legs(
        topo, folded.labels, folded.offsets, folded.src, folded.dst
    )


def valiant_legs_reference(cfg=SPARSE):
    """The same intermediates from the oracle, one superstep per call."""
    folded, topo = _sparse(cfg)
    policy = ValiantPolicy(0)
    bounds = folded.offsets.tolist()
    return np.concatenate([
        policy.intermediates_reference(
            topo, s, int(folded.labels[s]), folded.src[lo:hi]
        )
        for s, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ])


def _sparse(cfg):
    key = ("sparse",) + tuple(sorted(cfg.items()))
    if key not in _workloads:
        trace = make_trace(cfg["v"], cfg["supersteps"], cfg["msgs"])
        _workloads[key] = (fold_trace(trace, cfg["p"]), by_name("ring", cfg["p"]))
    return _workloads[key]


def test_e17_valiant_legs(benchmark, quick):
    _sparse(SPARSE)  # build the trace outside the timed region

    def both():
        # Alternate the two draws and keep each one's best of three.
        t_legs, t_ref = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            legs = valiant_legs()
            t_legs.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            mid = valiant_legs_reference()
            t_ref.append(time.perf_counter() - t0)
        return legs, mid, min(t_legs), min(t_ref)

    legs, mid, t_legs, t_ref = benchmark.pedantic(both, rounds=1, iterations=1)
    ratio = t_ref / t_legs if t_legs > 0 else float("inf")
    emit_table(
        "e17_valiant_legs",
        f"E17  Valiant legs of a sparse {SPARSE['supersteps']}-superstep "
        f"trace: phase_legs {t_legs * 1e3:.1f} ms vs per-superstep "
        f"oracle {t_ref * 1e3:.1f} ms ({ratio:.1f}x)",
        ["draw", "ms", "intermediates"],
        [
            ["phase_legs", round(t_legs * 1e3, 2), int(legs[0][1].size)],
            ["reference", round(t_ref * 1e3, 2), int(mid.size)],
            ["ratio", round(ratio, 2), "-"],
        ],
    )
    # Bit-identical intermediates, the policy's whole contract.
    (_, mid_a), (mid_b, _) = legs
    assert np.array_equal(mid_a, mid) and np.array_equal(mid_b, mid)
    if not quick:
        assert ratio >= 2.0, f"whole-trace Valiant draw only {ratio:.1f}x faster"
