#!/usr/bin/env python
"""Bound validation: the analytic C+D price vs a cycle-accurate run.

The D-BSP cost model prices every superstep analytically as congestion +
dilation on the folded topology, trusting Leighton–Maggs–Rao that an
O(C+D) store-and-forward schedule exists.  This example *executes* that
schedule: each message becomes a flit walking its hop path, links
arbitrate contention cycle by cycle, and the measured/(C+D) ratio is the
hidden constant per (topology, policy) cell.

It prints three views:

1. the measured-constant table for one oblivious FFT across all six
   topologies and both routing policies (the E19 table);
2. arbitration sensitivity — fifo vs farthest-to-go vs seeded random on
   the most contended cell;
3. an analytic-vs-measured ``ExperimentPlan`` sweep: the same grid, one
   frame, ``mode`` column switching between the two engines.

Run:  python examples/bound_validation.py [n]
"""

import sys

from repro.api import ExperimentPlan, run
from repro.networks import TOPOLOGIES, by_name, by_policy
from repro.sim import ARBITERS, simulate_many, validate_grid

POLICIES = ("dimension-order", "valiant")


def main(n: int = 256) -> None:
    pipe = run("fft", n=n, seed=7)
    trace = pipe.trace
    p = 16 if n >= 256 else 8
    print(f"oblivious n-FFT, n={n}, folded to p={p}: measured/(C+D) constants\n")

    print(f"  {'topology':>10} {'policy':>16} {'cycles':>7} {'C+D':>7} "
          f"{'mean':>6} {'max':>6}")
    grid = [(topo_name, policy_name)
            for topo_name in TOPOLOGIES for policy_name in POLICIES]
    reports = validate_grid([
        (trace, by_name(topo_name, p), by_policy(policy_name, 11))
        for topo_name, policy_name in grid
    ])
    worst_cell, worst_ratio = None, 0.0
    for (topo_name, policy_name), report in zip(grid, reports):
        prof = report.profile
        cd = float(prof.congestion.sum() + prof.dilation.sum())
        if report.max_ratio > worst_ratio:
            worst_cell, worst_ratio = (topo_name, policy_name), report.max_ratio
        print(
            f"  {topo_name:>10} {policy_name:>16} {prof.total_cycles:>7} "
            f"{cd:>7.0f} {report.mean_ratio:>6.2f} {report.max_ratio:>6.2f}"
        )
        assert report.ok, f"analytic model optimistic on {topo_name}"

    topo_name, policy_name = worst_cell
    print(f"\narbitration sensitivity on the worst cell "
          f"({topo_name}/{policy_name}, constant {worst_ratio:.2f}):")
    topo, policy = by_name(topo_name, p), by_policy(policy_name, 11)
    arbiters = sorted(ARBITERS)
    profiles = simulate_many(
        [(trace, topo, policy, arbiter) for arbiter in arbiters], seed=3
    )
    for arbiter, prof in zip(arbiters, profiles):
        print(f"  {arbiter:>16}: cycles={prof.total_cycles:>6} "
              f"max_ratio={prof.max_ratio:.2f}")

    print("\nanalytic vs measured, one declarative plan "
          "(mode column = which engine):")
    frame = ExperimentPlan.from_trace(
        trace,
        ps=[p],
        topologies=("torus2d", "hypercube", "fat-tree"),
        policies=POLICIES,
        modes=("analytic", "sim"),
        name="bound validation",
    ).run()
    print(frame)

    print(
        "\nConstants in a narrow band around 1 are the empirical content of"
        "\nthe LMR O(C+D) guarantee the analytic engine charges: the"
        "\ncongestion+dilation price is neither optimistic nor slack on any"
        "\nshipped (topology, policy) cell, under any link arbitration."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 256)
