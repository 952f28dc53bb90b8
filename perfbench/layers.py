"""Per-layer replay: one workload through each layer's public entry point.

With caches cleared, the replay walks the plan's cells in dependency
order — validate, (store key + get), emit, metrics, fold, route, sim,
(store put) — calling each layer the way the plan executor would and
timing every call from here.  ``plan.assemble_s`` is a plan run over the
LRUs the replay just warmed, through ``@``-sources holding the very
traces the replay emitted, so every fold/route/sim lookup hits and what
remains is the executor's own row assembly.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import replace

import repro
from repro.api import RESULT_COLUMNS, ExperimentPlan, by_name
from repro.core.metrics import TraceMetrics
from repro.exec.store import ResultStore, cell_key
from repro.machine.folding import fold_trace
from repro.models.presets import PRESETS
from repro.networks import by_policy, route_trace
from repro.networks import by_name as topology_by_name
from repro.sim import simulate_trace

from reference import source_key

#: Layers whose spans add up to one plan run, in dependency order.
LAYERS = (
    "plan.validate", "store.key", "store.get", "emit", "metrics",
    "fold", "route", "sim", "store.put", "plan.assemble",
)


class Spans:
    """Summed seconds and call counts per layer."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()

    def call(self, layer: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[layer] += time.perf_counter() - t0
        self.calls[layer] += 1
        return out


def replay(plan: ExperimentPlan, reference: list[dict], store_path=None) -> dict:
    """Trace one cold pass of ``plan``; returns the per-layer figures.

    ``store_path`` (a fresh copy of the primed store) makes the replay
    follow the store path: key every cell, read them all, compute only
    the misses and write those back.
    """
    repro.clear_caches()
    spans = Spans()
    cells = plan.cells
    wall0 = time.perf_counter()
    spans.call("plan.validate", plan.validate)

    todo = range(len(cells))
    store = None
    if store_path is not None:
        keys = [spans.call("store.key", cell_key, c) for c in cells]
        store = ResultStore(store_path)
        found = spans.call("store.get", store.get_many, sorted(set(keys)))
        todo = [i for i, k in enumerate(keys) if k not in found]

    traces: dict[tuple, object] = {}
    messages = 0
    for i in todo:
        key = source_key(cells[i])
        if key not in traces:
            c = cells[i]
            result = spans.call(
                "emit", by_name(c.algorithm).run, c.n, seed=c.seed, **dict(c.params)
            )
            traces[key] = result.trace
            messages += result.trace.total_messages

    tms = {k: spans.call("metrics", TraceMetrics, t) for k, t in traces.items()}
    for i in todo:
        c = cells[i]
        tm = tms[source_key(c)]
        if c.sigma is not None:
            spans.call("metrics", tm.H, c.p, c.sigma)
        if c.machine is not None:
            spans.call("metrics", lambda: tm.D_machine(PRESETS[c.machine](c.p)))

    topos: dict[tuple, object] = {}
    folds, routes, sims = set(), set(), set()
    flits = 0
    for i in todo:
        c = cells[i]
        if c.topology is None:
            continue
        key = source_key(c)
        trace = traces[key]
        if (key, c.p) not in folds:
            folds.add((key, c.p))
            spans.call("fold", fold_trace, trace, c.p)
        topo = topos.get((c.topology, c.p))
        if topo is None:
            topo = topos[(c.topology, c.p)] = topology_by_name(c.topology, c.p)
        policy = by_policy(c.policy, c.policy_seed)
        rkey = (key, c.topology, c.p, c.policy, c.policy_seed)
        if rkey not in routes:
            routes.add(rkey)
            spans.call("route", route_trace, trace, topo, policy)
        skey = rkey + (c.arbiter, c.arbiter_seed, c.flits_per_message)
        if c.mode == "sim" and skey not in sims:
            sims.add(skey)
            profile = spans.call(
                "sim", simulate_trace, trace, topo, policy, c.arbiter,
                seed=c.arbiter_seed, flits_per_message=c.flits_per_message,
            )
            flits += int(profile.edge_flits.sum())

    if store is not None:
        rows = {}
        for i in todo:
            mode = cells[i].mode if cells[i].topology else None
            row = dict(reference[i], mode=mode)
            rows[keys[i]] = tuple(row.get(col) for col in RESULT_COLUMNS)
        spans.call("store.put", store.put_many, rows)
        store.close()
    replay_wall = time.perf_counter() - wall0

    # The executor over warm LRUs: @-sources are the replay's own traces.
    names = {k: f"s{j}" for j, k in enumerate(traces)}
    warm = ExperimentPlan(
        [replace(cells[i], algorithm="@" + names[source_key(cells[i])])
         for i in todo],
        sources={names[k]: t for k, t in traces.items()},
    )
    spans.call("plan.assemble", warm.run)

    replayed = sum(s for layer, s in spans.seconds.items() if layer != "plan.assemble")
    return {
        "seconds": dict(spans.seconds),
        "calls": dict(spans.calls),
        "emit.messages": messages,
        "sim.flits": flits,
        "overhead_s": replay_wall - replayed,
    }
