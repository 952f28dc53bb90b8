"""Cost models: the execution model D-BSP and its presets.

Eq. 1 (``H`` on ``M(p, sigma)``) and Eq. 2 (``D`` on ``D-BSP``) are
priced by :class:`repro.core.metrics.TraceMetrics`.
"""

from repro.models.dbsp import DBSP
from repro.models.presets import (
    PRESETS,
    fat_tree_dbsp,
    flat_bsp,
    geometric_dbsp,
    hypercube_dbsp,
    mesh_dbsp,
)

__all__ = [
    "DBSP",
    "PRESETS",
    "mesh_dbsp",
    "hypercube_dbsp",
    "fat_tree_dbsp",
    "flat_bsp",
    "geometric_dbsp",
]
