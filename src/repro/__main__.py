"""Command-line entry point: ``python -m repro``.

Three subcommands expose the experiment API without writing any Python:

``python -m repro list``
    Print the registries: algorithms (with kind/section/example sizes),
    network topologies, routing policies, link arbiters and D-BSP
    machine presets.

``python -m repro plan experiments.json [--executor shm] [--store results.db]``
    Load a declarative :class:`~repro.api.plan.ExperimentPlan` from JSON
    (either an explicit ``{"cells": [...]}`` list or a ``{"grid": ...}``
    product spec), run it on any registered executor substrate —
    optionally through the persistent cell-hash result store — print
    the result frame (and the executor/store facts it recorded), and
    optionally export CSV/JSON.

``python -m repro sim matmul --n 64 --p 16 [--topologies ...] [...]``
    Cycle-accurately simulate one algorithm's trace on a topology x
    policy grid and print the measured/(congestion+dilation) bound
    constants (:func:`repro.sim.validate_bound`).
"""

from __future__ import annotations

import argparse
import sys

from repro.api import ExperimentPlan, specs
from repro.exec import executors
from repro.models import PRESETS
from repro.networks import POLICIES, TOPOLOGIES

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    table = sorted(specs().values(), key=lambda s: (s.kind, s.name))
    width = max(len(s.name) for s in table)
    print("algorithms (repro.api.algorithms):")
    for spec in table:
        sizes = ", ".join(str(n) for n in spec.default_sizes) or "-"
        print(
            f"  {spec.name:<{width}}  {spec.kind:<9} {spec.section:<15} "
            f"n e.g. [{sizes}]  {spec.summary}"
        )
    from repro.sim import ARBITERS

    print("\ntopologies (repro.networks.by_name):")
    print("  " + ", ".join(sorted(TOPOLOGIES)))
    print("\nrouting policies (repro.networks.by_policy):")
    print("  " + ", ".join(sorted(POLICIES)))
    print("\nlink arbiters (repro.sim.by_arbiter):")
    print("  " + ", ".join(sorted(ARBITERS)))
    print("\nD-BSP machine presets (repro.models.PRESETS):")
    print("  " + ", ".join(PRESETS))
    print("\nexecutors (repro.exec.by_executor):")
    print("  " + ", ".join(executors()))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = ExperimentPlan.from_json(args.file)
    frame = plan.run(
        executor=args.executor, max_workers=args.workers, store=args.store
    )
    print(frame)
    meta = frame.metadata
    if meta:
        facts = ", ".join(f"{k}={v}" for k, v in meta.items())
        print(f"[{facts}]")
    if args.csv:
        frame.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        frame.to_json(args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    from repro.api import by_name as spec_by_name
    from repro.api import run
    from repro.networks import by_name, by_policy
    from repro.sim import validate_bound

    params = {}
    if spec_by_name(args.algorithm).needs_p:
        if args.p is None:
            print(f"{args.algorithm} is a baseline: --p is required")
            return 2
        params["p"] = args.p
    pipe = run(args.algorithm, n=args.n, seed=args.seed, **params)
    trace = pipe.trace
    p = args.p if args.p is not None else trace.v
    topologies = args.topologies.split(",") if args.topologies else sorted(TOPOLOGIES)
    policies = args.policies.split(",") if args.policies else sorted(POLICIES)
    flits_note = f", flits={args.flits}" if args.flits != 1 else ""
    print(
        f"{args.algorithm} n={pipe.metrics().n} folded to p={p}, "
        f"arbiter={args.arbiter}{flits_note}: measured/(C+D) per superstep "
        f"(threshold {args.threshold:g})"
    )
    print(
        f"  {'topology':>10} {'policy':>16} {'cycles':>8} "
        f"{'max_ratio':>9} {'mean':>6}  ok"
    )
    worst = 0.0
    for topo_name in topologies:
        topo = by_name(topo_name, p)
        for policy_name in policies:
            report = validate_bound(
                trace,
                topo,
                by_policy(policy_name, args.policy_seed),
                args.arbiter,
                seed=args.seed,
                threshold=args.threshold,
                flits_per_message=args.flits,
                engine=args.engine,
            )
            s = report.summary()
            worst = max(worst, s["max_ratio"])
            print(
                f"  {s['topology']:>10} {s['policy']:>16} {s['cycles']:>8} "
                f"{s['max_ratio']:>9.2f} {s['mean_ratio']:>6.2f}  "
                f"{'yes' if s['ok'] else 'NO'}"
            )
    print(f"worst constant: {worst:.2f}")
    return 0 if worst <= args.threshold else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Network-oblivious algorithms experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show registered algorithms, topologies, policies")

    plan_p = sub.add_parser("plan", help="run an ExperimentPlan from a JSON file")
    plan_p.add_argument("file", help="plan JSON ({'cells': [...]} or {'grid': {...}})")
    plan_p.add_argument(
        "--executor",
        choices=executors(),
        default=None,
        help="executor substrate (default: $REPRO_EXECUTOR or serial)",
    )
    plan_p.add_argument(
        "--workers", type=int, default=None, help="worker-pool size"
    )
    plan_p.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent sqlite result store (warm cells skip re-simulation)",
    )
    plan_p.add_argument("--csv", help="also export the frame as CSV")
    plan_p.add_argument("--json", help="also export the frame as JSON")

    sim_p = sub.add_parser(
        "sim", help="cycle-accurately validate the C+D bound for one algorithm"
    )
    sim_p.add_argument("algorithm", help="registered algorithm name")
    sim_p.add_argument("--n", type=int, default=None, help="problem size")
    sim_p.add_argument(
        "--p", type=int, default=None, help="fold target (default: v(n))"
    )
    sim_p.add_argument(
        "--topologies", help="comma-separated topology names (default: all)"
    )
    sim_p.add_argument(
        "--policies", help="comma-separated policy names (default: all)"
    )
    sim_p.add_argument(
        "--arbiter", default="fifo", help="link arbiter (default: fifo)"
    )
    sim_p.add_argument("--seed", type=int, default=0, help="emission/arbiter seed")
    sim_p.add_argument(
        "--policy-seed", type=int, default=0, help="routing-policy seed"
    )
    sim_p.add_argument(
        "--threshold",
        type=float,
        default=4.0,
        help="acceptable measured/(C+D) constant (default: 4)",
    )
    sim_p.add_argument(
        "--flits",
        type=int,
        default=1,
        help="flits per message (the analytic price becomes F*C + D)",
    )
    sim_p.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default=None,
        help="cycle-loop executor (default: REPRO_SIM_ENGINE or fast)",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "sim":
        return _cmd_sim(args)
    return _cmd_plan(args)


if __name__ == "__main__":
    sys.exit(main())
