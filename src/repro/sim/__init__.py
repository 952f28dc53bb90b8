"""Cycle-accurate flit-level network simulation (the measured twin of
:mod:`repro.networks.routing`'s analytic congestion+dilation pricing).

The execution flow mirrors the analytic engine stage for stage::

    topology (route_paths: hop-ordered edge walks)
        x routing policy (the phase legs route_trace draws: fold_legs)
        x link arbiter (fifo / farthest-to-go / seeded random)
        -> simulate_trace (vectorized per-cycle advancement)
        -> SimProfile (per-superstep measured cycles, memoised)
        -> validate_grid (measured/(C+D): the empirical LMR constant)
"""

from repro.sim.arbiter import (
    ARBITERS,
    Arbiter,
    FarthestToGoArbiter,
    FifoArbiter,
    RandomArbiter,
    by_arbiter,
)
from repro.sim.engine import (
    SimProfile,
    simulate_many,
    simulate_trace,
    simulate_trace_reference,
)
from repro.sim.validate import BoundReport, validate_grid

__all__ = [
    "Arbiter",
    "FifoArbiter",
    "FarthestToGoArbiter",
    "RandomArbiter",
    "by_arbiter",
    "ARBITERS",
    "SimProfile",
    "simulate_trace",
    "simulate_trace_reference",
    "simulate_many",
    "BoundReport",
    "validate_grid",
]
