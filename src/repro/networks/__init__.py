"""Point-to-point network substrate: topologies, policies, routing, D-BSP fitting.

The routed-timing flow mirrors the Schedule-IR compile/execute split:

    topology (vectorised path kernels, cached capacities)
        x routing policy (endpoint rewriting: dimension-order, Valiant)
        -> route_trace (one columnar pass over the folded superstep ranges)
        -> RoutedProfile (per-superstep congestion/dilation/time, memoised)
"""

from repro.networks.dbsp_fit import fit
from repro.networks.policy import (
    POLICIES,
    DimensionOrderPolicy,
    RoutingPolicy,
    ValiantPolicy,
    by_policy,
)
from repro.networks.routing import (
    RoutedCost,
    RoutedProfile,
    clear_route_cache,
    route_trace,
    superstep_time,
)
from repro.networks.simulate import (
    NetworkComparison,
    compare_with_dbsp,
    routed_time,
)
from repro.networks.topology import (
    TOPOLOGIES,
    Butterfly,
    FatTree,
    Hypercube,
    Mesh2D,
    Ring,
    Topology,
    Torus2D,
    by_name,
)

__all__ = [
    "Topology",
    "Ring",
    "Mesh2D",
    "Torus2D",
    "Hypercube",
    "FatTree",
    "Butterfly",
    "by_name",
    "TOPOLOGIES",
    "RoutingPolicy",
    "DimensionOrderPolicy",
    "ValiantPolicy",
    "by_policy",
    "POLICIES",
    "fit",
    "superstep_time",
    "RoutedCost",
    "RoutedProfile",
    "route_trace",
    "clear_route_cache",
    "routed_time",
    "compare_with_dbsp",
    "NetworkComparison",
]
