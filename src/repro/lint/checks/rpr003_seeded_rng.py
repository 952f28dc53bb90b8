"""RPR003 — seeded RNG: no ambient randomness outside tests.

Frames are property-tested *bit-identical* across the serial and shm
executors, and memoised profiles are only safe to cache
because every random draw is a pure function of explicit seeds (the
Valiant policy's ``(seed, superstep)`` draw, the random arbiter's
counter-based hash of each flit's ``(seed, step, phase, cycle,
index)``).  One bare ``np.random.*`` call — or a ``default_rng()`` with
no seed — breaks both properties silently: results still *look*
plausible, they just stop being reproducible.

Flagged (outside test files):

* any attribute of the legacy global RNG — ``np.random.rand``,
  ``np.random.seed``, ``np.random.shuffle``, ... (everything except the
  generator-construction surface: ``default_rng``, ``Generator``,
  ``SeedSequence``, bit generators);
* ``default_rng()`` / ``np.random.default_rng()`` called with no
  arguments (or an explicit ``None``) — an OS-entropy seed;
* ``random.random()``-style calls on the stdlib ``random`` module.

Seeds must thread through parameters instead.  The house pattern is a
counter-based hash of explicit integers: :func:`repro.util.intmath.seed_key`
folds a seed into a 64-bit splitmix64 key, and each draw hashes that key
with its own counters (``ValiantPolicy``: superstep and place in it;
``RandomArbiter``: step, phase, cycle and index), so no generator object
carries state between draws.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import Check, ModuleContext, Violation, dotted_name
from repro.lint.registry import register_check

__all__ = ["SeededRngCheck"]

#: np.random attributes that *construct* seeded generators (allowed).
_ALLOWED_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: stdlib ``random`` module functions that draw from ambient state.
_STDLIB_DRAWS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "seed",
    "betavariate",
    "normalvariate",
}


def _is_test_file(relpath: str) -> bool:
    parts = relpath.split("/")
    return "tests" in parts or parts[-1].startswith("test_")


def _unseeded_call(node: ast.Call) -> bool:
    """No positional seed and no ``seed=`` keyword (or an explicit None)."""
    if node.args and not (
        isinstance(node.args[0], ast.Constant) and node.args[0].value is None
    ):
        return False
    for kw in node.keywords:
        if kw.arg in (None, "seed") and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ):
            return False
    return True


class SeededRngCheck(Check):
    id = "RPR003"
    name = "seeded-rng"
    summary = (
        "no legacy np.random.* globals or argless default_rng() outside "
        "tests — seeds must thread through parameters"
    )
    scope = "module"

    def run(self, ctx: ModuleContext) -> Iterable[Violation]:
        if _is_test_file(ctx.relpath):
            return
        for node in ctx.walk():
            if isinstance(node, ast.Attribute):
                base = dotted_name(node.value)
                if base in ("np.random", "numpy.random"):
                    if node.attr not in _ALLOWED_NP_RANDOM:
                        yield ctx.violation(
                            self.id,
                            node,
                            f"legacy global RNG call {base}.{node.attr} — "
                            "draw from a seeded np.random.default_rng(seed) "
                            "threaded through parameters instead",
                        )
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                short = name.split(".")[-1]
                if short == "default_rng" and _unseeded_call(node):
                    yield ctx.violation(
                        self.id,
                        node,
                        "default_rng() without a seed draws OS entropy — "
                        "results stop being reproducible across executors",
                    )
                if name.startswith("random.") and short in _STDLIB_DRAWS:
                    yield ctx.violation(
                        self.id,
                        node,
                        f"stdlib ambient RNG call {name}() — use a seeded "
                        "np.random.default_rng(seed) instead",
                    )


register_check(SeededRngCheck())
