"""Record wall-clock baselines for the trace-heavy benches.

Times the ``run_sweep`` workload of selected benches (no pytest involved,
so the numbers isolate the library code from harness overhead) and merges
them into ``BENCH_baseline.json`` at the repo root under a tag::

    PYTHONPATH=src python benchmarks/record_baseline.py --tag after

Tags accumulate — recording ``before`` on one commit and ``after`` on the
next gives the PR's perf trajectory its data points.  ``speedup_vs_before``
is recomputed whenever both tags are present.

``--compare`` re-times the workloads without writing and exits nonzero
when any recorded workload regresses by more than 20% against the
``--tag`` recording — the guard CI (or a pre-merge run) can lean on::

    PYTHONPATH=src python benchmarks/record_baseline.py --tag after --compare
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).parent
REPO_ROOT = BENCH_DIR.parent
BASELINE_PATH = REPO_ROOT / "BENCH_baseline.json"

#: (bench module, workload function, short name) — one timed entry each.
#: e17 records both routing paths so the vectorized/reference ratio of the
#: columnar routing engine lands in the baseline file.
WORKLOADS = [
    ("bench_e01_folding_lemma", "run_sweep", "e01_folding_lemma"),
    ("bench_e03_matmul", "run_sweep", "e03_matmul"),
    ("bench_e05_fft", "run_sweep", "e05_fft"),
    ("bench_e16_fold_kernels", "run_sweep", "e16_fold_kernels"),
    ("bench_e17_routing_kernels", "run_sweep", "e17_routing_vectorized"),
    ("bench_e17_routing_kernels", "run_sweep_reference", "e17_routing_reference"),
    ("bench_e18_plan_executor", "run_sweep", "e18_plan_serial"),
    ("bench_e18_plan_executor", "run_sweep_shm", "e18_plan_shm"),
    ("bench_e18_plan_executor", "run_sweep_store_cold", "e18_plan_store_cold"),
    ("bench_e18_plan_executor", "run_sweep_store_warm", "e18_plan_store_warm"),
    ("bench_e18_plan_executor", "run_sweep_dag", "e18_plan_dag"),
    ("bench_e18_plan_executor", "run_sweep_dag_shm", "e18_plan_dag_shm"),
    ("bench_e19_cycle_sim", "run_sweep_reference", "e19_cycle_sim"),
    ("bench_e19_cycle_sim", "run_sweep", "e19_cycle_sim_fast"),
]

#: --compare: fail when a workload is this much slower than the recording.
REGRESSION_TOLERANCE = 0.20


def _load(module_name: str):
    spec = importlib.util.spec_from_file_location(
        module_name, BENCH_DIR / f"{module_name}.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def time_workloads(repeats: int) -> tuple[dict[str, float], dict[str, object]]:
    """Timings per workload, plus the loaded bench modules (their warm
    per-module sources let post-passes read results without re-running)."""
    sys.path.insert(0, str(BENCH_DIR))
    mods: dict[str, object] = {}
    out = {}
    for module_name, func, short in WORKLOADS:
        if module_name not in mods:
            mods[module_name] = _load(module_name)
        workload = getattr(mods[module_name], func)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            workload()
            best = min(best, time.perf_counter() - t0)
        out[short] = round(best, 4)
        print(f"{short}: {best:.3f}s")
    return out, mods


def compare(data: dict, tag: str, repeats: int) -> int:
    """Re-time the workloads and fail on >20% regressions vs ``tag``.

    Returns a process exit code: 0 when every recorded workload stays
    within :data:`REGRESSION_TOLERANCE` of its baseline, 1 otherwise
    (new workloads without a recording are reported, never fatal).
    """
    if tag not in data:
        print(f"no recording tagged {tag!r} in {BASELINE_PATH}")
        return 2
    baseline = data[tag]["seconds"]
    seconds, _ = time_workloads(repeats)
    failures = []
    for name, now in seconds.items():
        then = baseline.get(name)
        if then is None:
            print(f"{name}: no baseline (new workload), skipping")
            continue
        ratio = now / then if then > 0 else float("inf")
        verdict = "ok" if ratio <= 1.0 + REGRESSION_TOLERANCE else "REGRESSION"
        print(f"{name}: {now:.3f}s vs {then:.3f}s ({ratio:.2f}x) {verdict}")
        if verdict != "ok":
            failures.append(name)
    if failures:
        print(f"regressed beyond {REGRESSION_TOLERANCE:.0%}: {', '.join(failures)}")
        return 1
    print("no regressions")
    return 0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tag", required=True, help="label for this recording, e.g. before/after")
    ap.add_argument("--repeats", type=int, default=2, help="take the best of N runs")
    ap.add_argument(
        "--compare",
        action="store_true",
        help="re-time and fail on >20%% regression vs the --tag recording "
        "instead of writing a new one",
    )
    args = ap.parse_args()

    data = {}
    if BASELINE_PATH.exists():
        data = json.loads(BASELINE_PATH.read_text())

    if args.compare:
        raise SystemExit(compare(data, args.tag, args.repeats))

    seconds, mods = time_workloads(args.repeats)
    data[args.tag] = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "seconds": seconds,
    }
    if "before" in data and "after" in data:
        before = data["before"]["seconds"]
        after = data["after"]["seconds"]
        data["speedup_vs_before"] = {
            k: round(before[k] / after[k], 2)
            for k in before
            if k in after and after[k] > 0
        }
    # The routing engine's own before/after lives inside one recording:
    # the reference path *is* the pre-engine per-message implementation.
    sec = data[args.tag]["seconds"]
    vec, ref = sec.get("e17_routing_vectorized"), sec.get("e17_routing_reference")
    if vec and ref:
        data["e17_routing_speedup_vectorized_vs_reference"] = round(ref / vec, 2)
    serial = sec.get("e18_plan_serial")
    # The shm pool ratio is recorded with the core count it was measured
    # on: a single-core container legitimately records <= 1.0x (the pool
    # is forced on in the bench so the dispatch path itself is timed).
    shm = sec.get("e18_plan_shm")
    if serial and shm:
        data["e18_plan_shm_vs_serial"] = round(serial / shm, 2)
        data["e18_plan_shm_cpu_count"] = os.cpu_count() or 1
    # The result-store win is hardware-independent: warm runs read rows
    # back from sqlite instead of emitting/folding/routing anything.
    store_cold = sec.get("e18_plan_store_cold")
    store_warm = sec.get("e18_plan_store_warm")
    if store_cold and store_warm:
        data["e18_plan_store_warm_vs_cold"] = round(store_cold / store_warm, 2)
    # E19: the measured/(C+D) bound constant per (topology, policy) cell
    # of the E11 grid — the hidden LMR constant the cycle-accurate
    # simulator exists to pin down (acceptance band: every cell <= 4).
    # The timed module instance keeps its emitted traces, so reading the
    # table rides the warm sim LRU instead of re-running the grid.
    constants = mods["bench_e19_cycle_sim"].bound_table()
    data["e19_sim_bound_constants"] = constants
    data["e19_sim_bound_constant_max"] = max(constants.values())
    # The same constants at 4 flits per message: congestion serialises
    # (the analytic price becomes F*C + D) while dilation does not, so
    # the band tightens toward 1 as bandwidth terms dominate.
    flits4 = mods["bench_e19_cycle_sim"].bound_table(flits=4)
    data["e19_sim_bound_constants_flits4"] = flits4
    data["e19_sim_bound_constant_max_flits4"] = max(flits4.values())
    # The engine speedup on identical (bit-identical, in fact) work.
    sim_ref, sim_fast = sec.get("e19_cycle_sim"), sec.get("e19_cycle_sim_fast")
    if sim_ref and sim_fast:
        data["e19_sim_engine_speedup_fast_vs_reference"] = round(
            sim_ref / sim_fast, 2
        )
    BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    main()
