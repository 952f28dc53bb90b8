"""The four plan-sweep workloads, built from a seed.

Each workload is a list of (algorithm, n) sources expanded through
``ExperimentPlan.grid`` with one shared set of grid axes.  The seed
becomes every cell's ``seed`` field (the algorithms' seeded inputs) and,
for ``store-resume``, picks which cells the primed store already holds.
``scale="tiny"`` shrinks every axis for the harness self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.api import ExperimentPlan

TOPOLOGIES = ("ring", "mesh2d", "torus2d", "hypercube", "fat-tree", "butterfly")
POLICIES = ("dimension-order", "valiant")
MACHINES = ("mesh1d", "mesh2d", "mesh3d", "hypercube", "fat-tree", "flat-bsp")


@dataclass(frozen=True)
class Workload:
    name: str
    sources: tuple[tuple[str, int], ...]
    grid: dict = field(default_factory=dict)
    #: Share of cells the primed result store holds (0: no store).
    warm_share: float = 0.0


FULL = {
    w.name: w
    for w in (
        # Emission dominates: structural H/D cells only, no topology.
        Workload(
            "emit-heavy",
            (("stencil1d", 32), ("stencil2d", 8), ("sort", 256),
             ("matmul", 64), ("fft", 1024)),
            dict(ps=[8, 32], sigmas=[0.0, 4.0],
                 machines=["mesh2d", "hypercube", "fat-tree"]),
        ),
        # Many-small-superstep stencils beside large-batch sort.
        Workload(
            "route-sweep",
            (("stencil2d", 4), ("sort", 128), ("fft", 256), ("stencil1d", 16)),
            dict(ps=[8, 16], topologies=TOPOLOGIES, policies=POLICIES),
        ),
        # Every route is shared by an analytic and a sim cell.
        Workload(
            "sim-grid",
            (("fft", 64), ("prefix", 128), ("broadcast", 256), ("matmul", 16)),
            dict(ps=[8, 16], topologies=TOPOLOGIES, policies=POLICIES,
                 modes=["analytic", "sim"]),
        ),
        # Thousands of cheap H/D cells against a 90%-warm result store.
        Workload(
            "store-resume",
            (("fft", 256), ("fft", 1024), ("prefix", 256), ("broadcast", 256),
             ("matmul", 64), ("sort", 64)),
            dict(ps=[2, 4, 8, 16, 32], sigmas=[0.5 * i for i in range(160)],
                 machines=MACHINES),
            warm_share=0.9,
        ),
    )
}

TINY = {
    "emit-heavy": Workload(
        "emit-heavy", (("stencil1d", 8), ("fft", 64)),
        dict(ps=[4], sigmas=[0.0], machines=["hypercube"]),
    ),
    "route-sweep": Workload(
        "route-sweep", (("fft", 64), ("stencil1d", 8)),
        dict(ps=[4], topologies=["ring", "hypercube"], policies=POLICIES),
    ),
    "sim-grid": Workload(
        "sim-grid", (("fft", 64),),
        dict(ps=[4], topologies=["ring", "hypercube"], policies=POLICIES,
             modes=["analytic", "sim"]),
    ),
    "store-resume": Workload(
        "store-resume", (("fft", 64), ("prefix", 64)),
        dict(ps=[4], sigmas=[0.0, 1.0, 2.0], machines=["hypercube"]),
        warm_share=0.5,
    ),
}

SCALES = {"full": FULL, "tiny": TINY}


def workload(name: str, scale: str = "full") -> Workload:
    return SCALES[scale][name]


def build_plan(name: str, seed: int, scale: str = "full") -> ExperimentPlan:
    """The workload's plan: every source expanded over the grid axes."""
    wl = workload(name, scale)
    cells = []
    for algorithm, n in wl.sources:
        cells.extend(
            ExperimentPlan.grid(
                algorithms=[algorithm], ns=[n], seed=seed, **wl.grid
            ).cells
        )
    return ExperimentPlan(cells, name=name)


def warm_plan(plan: ExperimentPlan, seed: int, share: float) -> ExperimentPlan:
    """The seeded subset of ``plan`` a primed store already holds."""
    k = round(share * len(plan.cells))
    keep = sorted(random.Random(seed).sample(range(len(plan.cells)), k))
    return ExperimentPlan([plan.cells[i] for i in keep], name=f"{plan.name}-warm")
