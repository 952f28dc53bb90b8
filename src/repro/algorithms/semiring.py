"""Semirings for the matrix-multiplication algorithms.

Kerr's lower bound (and hence Lemma 4.1) applies to algorithms using only
*semiring* operations — no subtraction, so no Strassen-style cancellation.
The recursive network-oblivious MM algorithms work over any semiring; we
ship the standard (+, x) ring and the (min, +) tropical semiring (whose
n-MM instances encode all-pairs shortest-path relaxation steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Semiring", "STANDARD", "MIN_PLUS", "MAX_TIMES", "BOOLEAN"]


@dataclass(frozen=True)
class Semiring:
    """A semiring with vectorised elementwise add/mul and dense matmul.

    ``add``/``mul`` combine two equal-shape arrays elementwise (the
    semiring sum and product — ``mul`` is what 1x1 block products reduce
    to); ``matmul`` multiplies two dense square blocks.  ``zero`` is the
    additive identity, used to initialise accumulators.
    """

    name: str
    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    matmul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero: float = 0.0
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.multiply

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name})"


def _minplus_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # C[i, j] = min_k (A[i, k] + B[k, j]); axes: (i, k, j) reduced over k.
    return (a[:, :, None] + b[None, :, :]).min(axis=1)


def _maxtimes_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, :, None] * b[None, :, :]).max(axis=1)


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(bool) @ b.astype(bool)).astype(a.dtype)


STANDARD = Semiring("(+, *)", np.add, lambda a, b: a @ b, zero=0.0, mul=np.multiply)
MIN_PLUS = Semiring("(min, +)", np.minimum, _minplus_matmul, zero=np.inf, mul=np.add)
MAX_TIMES = Semiring("(max, *)", np.maximum, _maxtimes_matmul, zero=0.0, mul=np.multiply)
BOOLEAN = Semiring("(or, and)", np.logical_or, _bool_matmul, zero=0.0, mul=np.logical_and)
