"""Cycle-accurate flit-level network simulation (the measured twin of
:mod:`repro.networks.routing`'s analytic congestion+dilation pricing).

The execution flow mirrors the analytic engine stage for stage::

    topology (route_paths: hop-ordered edge walks)
        x routing policy (the same phase batches route_trace prices)
        x link arbiter (fifo / farthest-to-go / seeded random)
        -> simulate_trace (vectorized per-cycle advancement)
        -> SimProfile (per-superstep measured cycles, memoised)
        -> validate_bound (measured/(C+D): the empirical LMR constant)
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
    ENGINES,
    SimProfile,
    clear_sim_cache,
    reset_sim_engine_stats,
    sim_cache_stats,
    sim_engine_stats,
    simulate_many,
    simulate_superstep,
    simulate_trace,
)
from repro.sim.validate import BoundReport, validate_bound, validate_grid

__all__ = [
    "Arbiter",
    "FifoArbiter",
    "FarthestToGoArbiter",
    "RandomArbiter",
    "by_arbiter",
    "ARBITERS",
    "ENGINES",
    "SimProfile",
    "simulate_trace",
    "simulate_many",
    "simulate_superstep",
    "clear_sim_cache",
    "sim_cache_stats",
    "sim_engine_stats",
    "reset_sim_engine_stats",
    "BoundReport",
    "validate_bound",
    "validate_grid",
]
