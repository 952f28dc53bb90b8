"""Low-level utilities shared across the reproduction.

The helpers here implement the arithmetic the paper uses implicitly
everywhere: powers of two, binary logarithms with the paper's convention
``log x := max(1, log2 x)`` (footnote 1), most-significant-bit cluster
arithmetic, and the Morton (Z-order) index encoding used by the recursive
matrix layouts.
"""

from repro.util.intmath import (
    ceil_div,
    ceil_log2,
    ilog2,
    is_power_of_two,
    next_power_of_two,
    paper_log,
    shared_msb,
)
from repro.util.morton import (
    morton_decode,
    morton_encode,
    morton_quadrant,
    morton_to_dense,
    dense_to_morton,
)

__all__ = [
    "ceil_div",
    "ceil_log2",
    "ilog2",
    "is_power_of_two",
    "next_power_of_two",
    "paper_log",
    "shared_msb",
    "morton_decode",
    "morton_encode",
    "morton_quadrant",
    "morton_to_dense",
    "dense_to_morton",
]
