"""The congestion+dilation bound check: measured vs analytic pricing.

:func:`validate_grid` runs the cycle-accurate simulator on a grid of
traces and reports each cell's per-superstep ``measured/(C+D)`` ratio —
the hidden constant of the Leighton–Maggs–Rao ``O(C+D)`` schedulability
guarantee that the D-BSP cost model leans on.  A healthy (topology,
policy) cell keeps the ratio inside a modest constant band; a cell above
``threshold`` marks the analytic price as *optimistic* for that
workload and is exactly the signal the ROADMAP's cycle-accurate open
item asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.arbiter import Arbiter
from repro.sim.engine import SimProfile, simulate_many

__all__ = ["BoundReport", "validate_grid"]

#: Default optimism threshold: the acceptance band for the measured LMR
#: constant on every shipped (topology, policy) cell.
DEFAULT_THRESHOLD = 4.0


@dataclass(frozen=True)
class BoundReport:
    """Per-superstep measured/(C+D) ratios of one simulated trace."""

    profile: SimProfile
    ratios: np.ndarray
    threshold: float

    @property
    def max_ratio(self) -> float:
        return self.profile.max_ratio

    @property
    def mean_ratio(self) -> float:
        return self.profile.mean_ratio

    @property
    def ok(self) -> bool:
        """Whether every superstep's constant stays under the threshold."""
        return self.max_ratio <= self.threshold

    @property
    def worst_superstep(self) -> int | None:
        """Index of the superstep with the largest ratio (None if idle)."""
        finite = ~np.isnan(self.ratios)
        if not finite.any():
            return None
        masked = np.where(finite, self.ratios, -np.inf)
        return int(np.argmax(masked))

    def optimistic_supersteps(self) -> np.ndarray:
        """Supersteps where the analytic price undershoots by > threshold."""
        with np.errstate(invalid="ignore"):
            return np.flatnonzero(self.ratios > self.threshold)

    def summary(self) -> dict:
        """Flat facts for tables and JSON baselines."""
        return {
            "topology": self.profile.topology,
            "policy": self.profile.policy,
            "arbiter": self.profile.arbiter,
            "p": self.profile.p,
            "cycles": self.profile.total_cycles,
            "max_ratio": round(self.max_ratio, 4),
            "mean_ratio": round(self.mean_ratio, 4),
            "ok": self.ok,
        }


def validate_grid(
    cells: list,
    arbiter: Arbiter | str = "fifo",
    *,
    seed: int = 0,
    threshold: float = DEFAULT_THRESHOLD,
    flits_per_message: int = 1,
) -> list[BoundReport]:
    """Bound-check a whole grid of ``(trace, topo, policy)`` cells.

    Each :class:`BoundReport`'s ``ratios[s]`` is the measured
    store-and-forward cycles of superstep ``s`` divided by its analytic
    ``flits_per_message * congestion + dilation`` price (NaN for
    barrier-only supersteps); ``report.ok`` says every superstep stayed
    within ``threshold``.  All cache-missing cells are simulated in one
    fused fast-engine run (:func:`~repro.sim.engine.simulate_many`), so
    the sweep costs its longest superstep chain instead of the per-cell
    sum — with reports bit-identical to validating each cell alone.
    """
    profiles = simulate_many(
        [(trace, topo, policy, arbiter) for trace, topo, policy in cells],
        seed=seed, flits_per_message=flits_per_message,
    )
    return [
        BoundReport(
            profile=p, ratios=p.bound_ratios(), threshold=float(threshold)
        )
        for p in profiles
    ]
