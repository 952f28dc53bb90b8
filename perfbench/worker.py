"""One measurement process of the benchmark (started by ``run.py``).

Modes:

``sweep``  time ``import repro`` plus building the plan, then this fresh
           process's first ``plan.run``, then cold runs (each after
           ``repro.clear_caches()``) for ``--seconds``, with a
           :func:`tick` after the set-up and after every run; reports
           peak RSS;
``trace``  untimed cold runs (for the plan-time median and the cache
           counters) alternating with per-layer replays of :mod:`layers`
           for ``--seconds``; reports each layer's median span.

Every frame is checked against the reference rows.  The last stdout line
is a JSON object for ``run.py``.  Nothing imports ``repro`` before the
set-up clock starts.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

#: Cold runs (or replays) a process takes even when ``--seconds`` runs
#: out first.
MIN_SAMPLES = 2


def tick() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    It shares no code with ``repro``, so it measures only how fast the
    host runs right now; ``run.py`` divides each timing by the ticks
    taken next to it.  Changing this function changes every baseline.
    """
    import numpy as np

    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(60000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    perm = np.arange(1 << 16) * 40503 % (1 << 16)
    for _ in range(4):
        np.bincount(np.sort(perm) % 512)
    return time.perf_counter() - t0


class Runner:
    """The workload's plan, its reference rows and fresh-store copies."""

    def __init__(self, args) -> None:
        import workloads

        self.plan = workloads.build_plan(args.workload, args.seed, args.scale)
        self.primed = Path(args.store) if args.store else None
        self.work = Path(args.work)
        self.ref_path = Path(args.ref)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self._copies = 0

    def fresh_store(self) -> Path | None:
        """A new copy of the primed store, flushed to disk so the timed
        run's commits write only what the run changed (set-up, never
        timed)."""
        if self.primed is None:
            return None
        self._copies += 1
        path = self.work / f"run-{self._copies}.db"
        shutil.copyfile(self.primed, path)
        for target, flags in ((path, os.O_RDONLY), (self.work, os.O_DIRECTORY)):
            fd = os.open(target, flags)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return path

    def run(self, *, stats: dict | None = None, **kwargs) -> float:
        """Time one cold ``plan.run`` and check its frame.

        ``stats`` receives the ``repro.cache_stats()`` deltas of the run.
        """
        import repro

        store = self.fresh_store()
        if store is not None:
            kwargs["store"] = store
        repro.clear_caches()
        gc.collect()
        before = repro.cache_stats()
        t0 = time.perf_counter()
        frame = self.plan.run(**kwargs)
        dt = time.perf_counter() - t0
        if stats is not None:
            after = repro.cache_stats()
            for name, counters in after.items():
                stats[name] = {
                    k: v - before[name].get(k, 0) for k, v in counters.items()
                }
        self.check(frame)
        if store is not None:
            store.unlink()
        return dt

    def check(self, frame) -> None:
        from reference import count_failed

        if self.reference is None:
            self.reference = json.loads(self.ref_path.read_text())
        self.attempted += len(self.reference)
        self.failed += count_failed(frame.columns, frame.rows, self.reference)

    def counts(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed}


def sweep(args) -> dict:
    t0 = time.perf_counter()
    runner = Runner(args)  # imports repro
    setup_s = time.perf_counter() - t0
    tick()  # warm the tick's own code paths
    ticks = [tick()]
    first_plan_s = runner.run()
    ticks.append(tick())
    samples = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(samples) < MIN_SAMPLES:
        samples.append(runner.run())
        ticks.append(tick())
    return {
        "setup_s": setup_s,
        "first_plan_s": first_plan_s,
        "plan_s": samples,
        "ticks": ticks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **runner.counts(),
    }


def trace(args) -> dict:
    from layers import replay

    runner = Runner(args)
    runner.run()  # settle process-lifetime state (fuse-gate probes)
    counters: dict = {}
    dag: dict = {}
    runner.run(stats=dag, scheduler="dag")
    times = [runner.run(stats=counters)]
    replays = [replay(runner.plan, runner.reference, runner.fresh_store())]
    # Untraced runs and replays alternate, so host drift hits both sides
    # of trace.coverage alike.
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(replays) < MIN_SAMPLES:
        times.append(runner.run())
        replays.append(replay(runner.plan, runner.reference, runner.fresh_store()))
    layers = dict(replays[0])
    layers["seconds"] = {
        layer: statistics.median(r["seconds"][layer] for r in replays)
        for layer in replays[0]["seconds"]
    }
    layers["overhead_s"] = statistics.median(r["overhead_s"] for r in replays)
    return {
        "plan_s_p50": statistics.median(times),
        "replays": len(replays),
        "counters": counters,
        "dag": dag["dag"],
        "layers": layers,
        **runner.counts(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("sweep", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--ref", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--store")
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    out = {"sweep": sweep, "trace": trace}[args.mode](args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
