"""Output check: reference rows through the lazy ``Pipeline`` API.

The reference path shares no code with the plan executor, the scheduler
or the result store: every cell is re-derived as a
``run(...).fold(p)`` / ``.route(...)`` / ``.simulate(...)`` chain and
its ``metrics()`` row.  A timed frame is compared with it on the columns
both row types carry; a row that is missing or differs in any of them
counts as one failed cell.
"""

from __future__ import annotations

import math
from dataclasses import fields

from repro.api import RESULT_COLUMNS, ExperimentPlan, MetricsRow, PlanCell
from repro.api import run as pipeline_run

#: Columns a plan row and a pipeline ``MetricsRow`` both carry.
SHARED = tuple(
    c for c in RESULT_COLUMNS if c in {f.name for f in fields(MetricsRow)}
)


def source_key(cell: PlanCell) -> tuple:
    """The identity of the trace a cell is priced on."""
    return (cell.algorithm, cell.n, cell.seed, cell.params)


def reference_rows(cells) -> list[dict]:
    """One ``{column: value}`` dict per cell, in cell order."""
    roots: dict[tuple, object] = {}
    out = []
    for cell in cells:
        key = source_key(cell)
        root = roots.get(key)
        if root is None:
            root = roots[key] = pipeline_run(
                cell.algorithm, cell.n, seed=cell.seed, **dict(cell.params)
            )
        machine = D = None
        if cell.topology is not None:
            chain = root.route(
                cell.topology, cell.policy, p=cell.p, seed=cell.policy_seed
            )
            if cell.mode == "sim":
                chain = chain.simulate(
                    cell.arbiter, seed=cell.arbiter_seed,
                    flits_per_message=cell.flits_per_message,
                )
            row = chain.metrics()
        else:
            chain = root.fold(cell.p)
            row = chain.metrics(sigma=cell.sigma)
            if cell.machine is not None:
                machine, D = cell.machine, chain.D(cell.machine)
        ref = {c: getattr(row, c) for c in SHARED}
        if machine is not None:
            ref.update(machine=machine, D=D)
        out.append(ref)
    return out


def oracle_check(cells) -> tuple[int, int]:
    """(sources checked, sources whose ``adapt`` oracle said False).

    One bare cell per distinct source runs through ``check=True``;
    sources without an oracle report ``None`` and count as checked.
    """
    bare = {
        source_key(c): PlanCell(c.algorithm, n=c.n, seed=c.seed, params=c.params)
        for c in cells
    }
    verdicts = ExperimentPlan(list(bare.values())).run(check=True).column("correct")
    return len(verdicts), sum(v is False for v in verdicts)


def _same(got, want) -> bool:
    if isinstance(got, float) and isinstance(want, float):
        return got == want or (math.isnan(got) and math.isnan(want))
    return got == want


def count_failed(frame_columns, rows, reference: list[dict]) -> int:
    """Cells of one frame that are missing or disagree with the reference."""
    index = [(frame_columns.index(c), c) for c in SHARED]
    failed = abs(len(rows) - len(reference))
    for row, want in zip(rows, reference):
        if not all(_same(row[i], want[c]) for i, c in index):
            failed += 1
    return failed
