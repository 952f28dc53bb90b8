"""RPR006 — engine parity: twin signatures cannot silently narrow.

The bit-identity property tests compare a vectorized kernel against its
``*_reference`` oracle *for the parameters both accept*.  A public kwarg
added to only one side (say ``flits_per_message`` on the fast path but
not the reference loop) narrows the property silently: the suite still
passes, but only over the shared subset, and the new behaviour ships
unpinned.  The same applies to the sim entry points — ``simulate_many``
is documented as "the grid twin of ``simulate_trace``", so their
keyword surfaces must stay identical.

Flagged:

* a pair ``X`` / ``X_reference`` in the same namespace whose parameter
  name lists differ (e.g. ``simulate_trace`` /
  ``simulate_trace_reference``);
* modules defining both ``simulate_trace`` and ``simulate_many``:
  their keyword-only parameter sets must be equal.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import Check, ModuleContext, Violation, iter_scopes
from repro.lint.registry import register_check

__all__ = ["EngineParityCheck"]

_SUFFIX = "_reference"


def _params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return [n for n in names if n != "self"]


def _kwonly(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    return {a.arg for a in fn.args.kwonlyargs}


class EngineParityCheck(Check):
    id = "RPR006"
    name = "engine-parity"
    summary = (
        "vectorized/reference twins and the simulate_* entry points keep "
        "identical parameter surfaces"
    )
    scope = "module"

    def run(self, ctx: ModuleContext) -> Iterable[Violation]:
        for scope_name, functions in iter_scopes(ctx.tree):
            for name, node in functions.items():
                if not name.endswith(_SUFFIX):
                    continue
                twin = functions.get(name[: -len(_SUFFIX)])
                if twin is None:
                    continue  # RPR001's finding, not a parity question
                fast = _params(twin)
                ref = _params(node)
                if fast != ref:
                    missing = [p for p in ref if p not in fast]
                    extra = [p for p in fast if p not in ref]
                    detail = []
                    if extra:
                        detail.append(
                            f"{twin.name} adds {extra} the oracle never sees"
                        )
                    if missing:
                        detail.append(f"{name} adds {missing}")
                    if not detail:
                        detail.append("parameter order differs")
                    yield ctx.violation(
                        self.id,
                        twin,
                        f"signature drift between {twin.name!r} and its "
                        f"oracle {name!r}: " + "; ".join(detail) + " — the "
                        "bit-identity property tests silently narrow",
                    )

        top = dict(next(iter_scopes(ctx.tree))[1])
        trace = top.get("simulate_trace")
        many = top.get("simulate_many")
        if trace is not None and many is not None:
            if _kwonly(trace) != _kwonly(many):
                yield ctx.violation(
                    self.id,
                    many,
                    "simulate_many is the grid twin of simulate_trace but "
                    f"their keyword-only surfaces differ ({sorted(_kwonly(trace))}"
                    f" vs {sorted(_kwonly(many))})",
                )


register_check(EngineParityCheck())
