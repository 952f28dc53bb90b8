"""Integer arithmetic helpers for cluster and superstep index algebra.

All machine sizes in the paper are powers of two; cluster membership is
decided by shared most-significant index bits.  These helpers keep that
bit-twiddling in one audited place, beside the one 64-bit hash every
seeded draw and content key is built from (splitmix64: Steele, Lea &
Flood, "Fast splittable pseudorandom number generators", OOPSLA'14).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "is_power_of_two",
    "ilog2",
    "ceil_log2",
    "next_power_of_two",
    "ceil_div",
    "paper_log",
    "shared_msb",
    "square_side",
    "SPLITMIX_GAMMA",
    "splitmix64",
    "seed_key",
    "mix64",
]


def is_power_of_two(x: int) -> bool:
    """Return ``True`` iff ``x`` is a positive integral power of two."""
    return isinstance(x, (int,)) and x > 0 and (x & (x - 1)) == 0


def square_side(n: int, min_side: int = 1, *, what: str = "problem") -> int:
    """The side of an ``n``-entry square with power-of-two side.

    The matrix problems state sizes as entry counts ``n = side**2``; this
    is the one shared validator (used by every matmul registry spec) —
    raises :class:`ValueError` unless ``side`` is a power of two
    ``>= min_side``.
    """
    side = int(round(n**0.5))
    if side * side != n or not is_power_of_two(side) or side < min_side:
        raise ValueError(
            f"{what} needs n = side**2 with power-of-two side >= {min_side}, "
            f"got n={n}"
        )
    return side


def ilog2(x: int) -> int:
    """Exact binary logarithm of a power of two.

    Raises :class:`ValueError` when ``x`` is not a power of two, so silent
    truncation can never corrupt cluster arithmetic.
    """
    if not is_power_of_two(x):
        raise ValueError(f"ilog2 requires a power of two, got {x!r}")
    return x.bit_length() - 1


def ceil_log2(x: int) -> int:
    """Smallest ``k`` with ``2**k >= x`` (``x >= 1``)."""
    if x < 1:
        raise ValueError(f"ceil_log2 requires x >= 1, got {x!r}")
    return (x - 1).bit_length()


def next_power_of_two(x: int) -> int:
    """Smallest power of two ``>= x`` (``x >= 1``)."""
    return 1 << ceil_log2(x)


def ceil_div(a: int, b: int) -> int:
    """Ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires b > 0, got {b!r}")
    return -(-a // b)


def paper_log(x: float) -> float:
    """The paper's logarithm convention ``log x = max(1, log2 x)``.

    Footnote 1 of the paper: "we use log x to mean max{1, log2 x}"; this
    keeps expressions such as ``log(n/p)`` well defined at ``p = n``.
    """
    if x <= 0:
        raise ValueError(f"paper_log requires x > 0, got {x!r}")
    return max(1.0, math.log2(x))


def shared_msb(v: int, a: int, b: int) -> int:
    """Number of most-significant bits shared by indices ``a, b`` in ``[0, v)``.

    Indices are interpreted as ``log2(v)``-bit strings (the VP/processor
    numbering of ``M(v)``).  A message ``a -> b`` is legal in an
    i-superstep iff ``shared_msb(v, a, b) >= i`` (Section 2).
    """
    logv = ilog2(v)
    if not (0 <= a < v and 0 <= b < v):
        raise ValueError(f"indices {a}, {b} out of range for v={v}")
    if a == b:
        return logv
    diff = a ^ b
    # The highest differing bit position, counted from the MSB side.
    return logv - diff.bit_length()


#: splitmix64's state increment (the 64-bit golden ratio): output ``k`` of
#: the stream seeded at ``z`` is ``splitmix64(z + k * SPLITMIX_GAMMA)``.
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """splitmix64's next output after state ``z`` (Python ints, mod 2**64)."""
    z = (z + SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def seed_key(seed: int) -> int:
    """The 64-bit key of a non-negative seed: ``splitmix64`` of its low
    word, then ``key = splitmix64(key ^ w)`` for each higher 64-bit word
    ``w`` (a seed below 2**64 keys as ``splitmix64(seed)``)."""
    key = splitmix64(seed & _MASK64)
    while seed := seed >> 64:
        key = splitmix64(key ^ (seed & _MASK64))
    return key


def mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser of a ``uint64`` array, in place (returns
    ``h``): ``splitmix64(z)`` is ``mix64(z + SPLITMIX_GAMMA)``."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        h ^= h >> np.uint64(shift)
        h *= np.uint64(mult)
    h ^= h >> np.uint64(31)
    return h
