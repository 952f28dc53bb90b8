"""Tree-based prefix sums on M(v) (Jájá '92; used by Section 5).

The ascend–descend protocol of Section 5 needs a prefix-like computation
inside every cluster to agree on intermediate message destinations
(Lemma 5.1 charges "O(log p) k-supersteps of constant degree" for it).
This module implements the classic two-sweep (Blelloch) scan as a
first-class network-oblivious algorithm on ``M(v)``:

* **up-sweep**: level ``d`` combines pairs at distance ``2^d``; the
  superstep label is ``log v - d - 1`` (the pair lies in a common
  ``(log v - d - 1)``-cluster), degree 1;
* **down-sweep**: mirrors the pattern to distribute prefix offsets.

The result is an *exclusive* scan by default (``out[i] = sum_{j<i} x[j]``);
``inclusive=True`` adds the local element back.  Labels get finer as the
sweep descends, which is exactly the submachine locality D-BSP rewards:
on D-BSP with geometric parameters the scan costs ``O(g_0 + ell_0)``
(cf. the remark closing Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.algorithms._common import AlgorithmResult
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2

__all__ = ["run", "PrefixResult"]


@dataclass
class PrefixResult(AlgorithmResult):
    """Result of the prefix-sums run."""

    output: np.ndarray = None


def run(
    x: np.ndarray,
    *,
    op: Callable = np.add,
    identity: Any = 0,
    inclusive: bool = False,
) -> PrefixResult:
    """Prefix-combine ``x`` under the associative ``op`` on ``M(v)``.

    ``x`` must have power-of-two length.  VP ``i`` starts with ``x[i]`` and
    ends with ``op(x[0], ..., x[i-1])`` (exclusive) or including ``x[i]``
    (inclusive).
    """
    x = np.asarray(x)
    v = x.shape[0]
    logv = ilog2(v)
    builder = ScheduleBuilder(v)
    val = x.astype(np.result_type(x, type(identity)), copy=True)

    if v == 1:
        out = np.array([identity]) if not inclusive else val
        return PrefixResult.from_schedule(builder.build(), 1, output=out)

    # Up-sweep: right child of each distance-2^d pair absorbs the left sum.
    for d in range(logv):
        stride = 1 << (d + 1)
        right = np.arange(stride - 1, v, stride, dtype=np.int64)
        left = right - (1 << d)
        builder.superstep(logv - d - 1, left, right)
        val[right] = op(val[left], val[right])

    # Down-sweep: root seeds the identity; each node pushes prefixes down.
    total = val[v - 1]
    val[v - 1] = identity
    for d in range(logv - 1, -1, -1):
        stride = 1 << (d + 1)
        right = np.arange(stride - 1, v, stride, dtype=np.int64)
        left = right - (1 << d)
        # left and right swap/combine: two messages per pair.
        src = np.concatenate([left, right])
        dst = np.concatenate([right, left])
        builder.superstep(logv - d - 1, src, dst)
        t = val[left].copy()
        val[left] = val[right]
        val[right] = op(t, val[right])

    if inclusive:
        val = op(val, x)
    res = PrefixResult.from_schedule(builder.build(), v, output=val)
    res.total = total
    return res


# ----------------------------------------------------------------------
# Registry spec (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import AlgorithmSpec, register  # noqa: E402


def _api_check(n: int, *, inclusive: bool = False) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"prefix sums need power-of-two n >= 1, got n={n}")


def _api_emit(n: int, rng, *, inclusive: bool = False) -> PrefixResult:
    x = rng.random(n)
    result = run(x, inclusive=inclusive)
    result.oracle_input = (x, inclusive)  # adapt computes the scan lazily
    return result


def _api_adapt(result: PrefixResult) -> dict:
    inputs = getattr(result, "oracle_input", None)
    if inputs is None:  # result not emitted through the registry
        return {}
    x, inclusive = inputs
    cum = np.cumsum(x)
    # numpy reference scan (exclusive by default).
    oracle = cum if inclusive else np.concatenate(([0.0], cum[:-1]))
    return {"correct": bool(np.allclose(result.output, oracle))}


register(
    AlgorithmSpec(
        name="prefix",
        summary="tree-based prefix sums (Section 5 substrate)",
        kind="oblivious",
        section="5",
        emit=_api_emit,
        check=_api_check,
        adapt=_api_adapt,
        default_sizes=(64, 256, 1024),
    )
)
