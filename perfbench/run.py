"""Benchmark of ``ExperimentPlan`` sweeps: end-to-end or per-layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload route-sweep --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics (fresh-process set-up and
first run, then cold plan runs for ``--seconds``, all in reference-host
seconds); ``--trace 1`` prints
the per-layer metrics of a traced replay.  Either way the last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
``failed`` counts cells that raised, are missing or disagree with the
``Pipeline`` reference, plus sources whose ``adapt`` oracle failed.
See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Fresh processes per run: each times its set-up and first run, then
#: its share of ``--seconds`` of cold runs.  Several processes average
#: out per-process state (memory layout, the timed fuse-gate decisions).
PROCESSES = {"full": 12, "tiny": 2}
#: What ``worker.tick`` takes on the reference host: every end-to-end
#: time is reported in seconds at that host speed (see
#: :func:`reference_speed`).  Fixed, like the tick itself.
REFERENCE_TICK_S = 0.011
#: A whole run must end within 180 s; workers are killed past this.
DEADLINE = time.monotonic() + 170
#: Environment variables that would move the plan off its defaults.
REPRO_ENV = ("REPRO_EXECUTOR", "REPRO_PLAN_DAG", "REPRO_SANITIZE", "REPRO_SIM_ENGINE")

END_TO_END = {
    "setup_s": "s",
    "first_plan_s": "s",
    "plan_s.p50": "s",
    "plan_s.tail": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in REPRO_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # One serial process: no BLAS thread pools competing for the CPUs.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(mode: str, argv: list[str], env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, *argv]
    timeout = max(DEADLINE - time.monotonic(), 1.0)
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint(root: Path) -> dict:
    import numpy
    import repro

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "repro": repro.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it: the 11th-largest sample."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * k / len(ordered)


def reference_speed(out: dict) -> tuple[float, float, list[float]]:
    """A sweep worker's times in reference-host seconds.

    Each time is multiplied by ``REFERENCE_TICK_S`` over the mean of the
    ticks taken just before and just after it (set-up: the tick after
    it), so that a host running slower for a while scales the tick and
    the run alike and the ratio keeps only the program's own cost.
    """
    t = out["ticks"]
    speed = [REFERENCE_TICK_S / ((a + b) / 2) for a, b in zip(t, t[1:])]
    return (
        out["setup_s"] * REFERENCE_TICK_S / t[0],
        out["first_plan_s"] * speed[0],
        [s * f for s, f in zip(out["plan_s"], speed[1:])],
    )


def end_to_end(args, common, env, n_cells) -> tuple[dict, int, int]:
    procs = PROCESSES[args.scale]
    share = ["--seconds", str(args.seconds / procs)]
    outs = [run_worker("sweep", common + share, env) for _ in range(procs)]
    setups, firsts, samples = [], [], []
    for out in outs:
        setup_s, first_plan_s, plan_s = reference_speed(out)
        setups.append(setup_s)
        firsts.append(first_plan_s)
        samples.extend(plan_s)
    p50 = statistics.median(samples)
    tail_s, tail_pct = tail(samples)
    ticks = [t for out in outs for t in out["ticks"]]
    raw = [s for out in outs for s in out["plan_s"]]
    print(f"# plan_s: {len(samples)} samples from {procs} processes, "
          f"tail = p{tail_pct:.1f}")
    print(f"# host: median tick {statistics.median(ticks):.5f} s "
          f"(reference {REFERENCE_TICK_S} s); as measured, plan_s.p50 = "
          f"{statistics.median(raw):.4f} s, setup_s = "
          f"{statistics.median(o['setup_s'] for o in outs):.4f} s")
    metrics = {
        "setup_s": statistics.median(setups),
        "first_plan_s": statistics.median(firsts),
        "plan_s.p50": p50,
        "plan_s.tail": tail_s,
        "cells_per_s": n_cells / p50,
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
    }
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, attempted, failed


def _ratio(counters: dict) -> float:
    lookups = counters["hits"] + counters["misses"]
    return counters["hits"] / lookups if lookups else 0.0


def per_layer(args, common, env) -> tuple[dict, int, int]:
    from layers import LAYERS

    out = run_worker("trace", common + ["--seconds", str(args.seconds)], env)
    lay, c, dag = out["layers"], out["counters"], out["dag"]
    sec = {layer: lay["seconds"].get(layer, 0.0) for layer in LAYERS}
    calls = {layer: lay["calls"].get(layer, 0) for layer in LAYERS}
    flits = lay["sim.flits"]
    metrics = {
        "emit.s": (sec["emit"], "s"),
        "emit.calls": (calls["emit"], "count"),
        "emit.messages": (lay["emit.messages"], "count"),
        "metrics.s": (sec["metrics"], "s"),
        "metrics.calls": (calls["metrics"], "count"),
        "fold.s": (sec["fold"], "s"),
        "fold.calls": (calls["fold"], "count"),
        "fold.hit_ratio": (_ratio(c["fold"]), "ratio"),
        "fold.evictions": (c["fold"]["evictions"], "count"),
        "route.s": (sec["route"], "s"),
        "route.calls": (calls["route"], "count"),
        "route.hit_ratio": (_ratio(c["route"]), "ratio"),
        "route.evictions": (c["route"]["evictions"], "count"),
        "sim.s": (sec["sim"], "s"),
        "sim.calls": (calls["sim"], "count"),
        "sim.hit_ratio": (_ratio(c["sim"]), "ratio"),
        "sim.evictions": (c["sim"]["evictions"], "count"),
        "sim.flits": (flits, "count"),
        "sim.us_per_flit": (1e6 * sec["sim"] / flits if flits else 0.0, "us"),
        "store.key_s": (sec["store.key"], "s"),
        "store.get_s": (sec["store.get"], "s"),
        "store.put_s": (sec["store.put"], "s"),
        "store.hits": (c["store"]["hits"], "count"),
        "store.misses": (c["store"]["misses"], "count"),
        "plan.validate_s": (sec["plan.validate"], "s"),
        "plan.assemble_s": (sec["plan.assemble"], "s"),
        "dag.stages_planned": (dag["stages_planned"], "count"),
        "dag.stages_unique": (dag["stages_unique"], "count"),
        "trace.coverage": (sum(sec.values()) / out["plan_s_p50"], "ratio"),
        "trace.overhead_s": (lay["overhead_s"], "s"),
    }
    # store.key/get/put form one store span, validate/assemble the plan one.
    spans = {layer.split(".")[0]: 0.0 for layer in LAYERS}
    for layer, s in sec.items():
        spans[layer.split(".")[0]] += s
    print(f"# {out['replays']} replays; untraced plan_s.p50 = "
          f"{out['plan_s_p50']:.4f} s; largest span: {max(spans, key=spans.get)}")
    return metrics, out["attempted"], out["failed"]


def prepare(args, work: Path) -> tuple[list[str], int, int, int]:
    """Set-up outside every timed figure: reference rows, oracle verdicts
    and, for ``store-resume``, the primed store."""
    import workloads
    from reference import oracle_check, reference_rows

    plan = workloads.build_plan(args.workload, args.seed, args.scale)
    ref = work / "reference.json"
    ref.write_text(json.dumps(reference_rows(plan.cells)))
    checked, wrong = oracle_check(plan.cells)
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--ref", str(ref), "--work", str(work),
    ]
    wl = workloads.workload(args.workload, args.scale)
    if wl.warm_share:
        from repro.exec import ResultStore

        primed = work / "primed.db"
        store = ResultStore(primed)
        workloads.warm_plan(plan, args.seed, wl.warm_share).run(store=store)
        store.close()
        common += ["--store", str(primed)]
    return common, len(plan.cells), checked, wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(PROCESSES), default="full")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.FULL:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.FULL)}")

    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        print("# host " + json.dumps(fingerprint(root)))
        common, n_cells, checked, wrong = prepare(args, work)
        env = worker_env(root)
        print(f"# workload {args.workload}: {n_cells} cells, seed {args.seed}, "
              f"scale {args.scale}")
        if args.trace:
            metrics, attempted, failed = per_layer(args, common, env)
        else:
            metrics, attempted, failed = end_to_end(args, common, env, n_cells)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still holds its own directory there
    attempted += checked
    failed += wrong
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# cells_failed = {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
