"""RPR007 — stage purity: DAG stage kernels read no module-level
mutable state.

The stage graph (:mod:`repro.exec.dag`) executes a stage node wherever
the run's executor substrate puts it — the calling thread, a forked or
spawned shared-memory worker, a third-party substrate — and relies on
every execution computing the *same* artifact.  That only holds if a stage
kernel is a pure function of its arguments: any read of module-level
mutable state (a dict of options, a list toggled by a previous run)
would make the artifact depend on which process computed it, silently
breaking the bit-identity contract the DAG path is property-tested
against.

The check applies to every function decorated with ``@stage_kernel(...)``
and flags:

* ``global``/``nonlocal`` declarations inside the kernel (a kernel
  neither reads nor writes ambient state);
* a ``Load`` of a module-level name bound to a mutable value (a
  dict/list/set display or comprehension, or a ``dict``/``list``/
  ``set``/``OrderedDict``/``defaultdict`` call).

The registered memoisation LRUs are the sanctioned exception: a cached
artifact is the same in every process.  In a module that calls
``register_cache(...)``, names following the cache-naming convention
(``cache`` in the identifier, as in RPR002) are therefore allowed.  The
shipped kernels need no such read: they call the uncached bodies
(``compute_route``, ``compute_sims``), reach only the trace-local fold
and phase-legs memo through ``fold_legs``, and leave the route and sim LRUs to the wave step that
dispatches them.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import Check, ModuleContext, Violation, call_name
from repro.lint.registry import register_check

__all__ = ["StagePurityCheck"]

_DECORATOR = "stage_kernel"
#: Calls whose result is module-level mutable state.
_MUTABLE_CALLS = {"dict", "list", "set", "OrderedDict", "defaultdict", "deque"}
#: The sanctioned exception (mirrors RPR002's cache-naming convention).
_CACHE_NAME_HINT = "cache"


def _is_stage_kernel(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for deco in fn.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = call_name(deco) if isinstance(deco, ast.Call) else None
        if name is None and not isinstance(deco, ast.Call):
            from repro.lint.base import dotted_name

            name = dotted_name(target)
        if name is not None and name.split(".")[-1] == _DECORATOR:
            return True
    return False


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name is not None and name.split(".")[-1] in _MUTABLE_CALLS
    return False


def _module_mutable_names(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable values."""
    out: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def _module_registers_cache(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and call_name(node) == "register_cache":
            return True
    return False


class StagePurityCheck(Check):
    id = "RPR007"
    name = "stage-purity"
    summary = (
        "@stage_kernel functions read no module-level mutable state "
        "(registered caches excepted) and declare no global/nonlocal"
    )
    scope = "module"

    def run(self, ctx: ModuleContext) -> Iterable[Violation]:
        mutable = _module_mutable_names(ctx.tree)
        if not mutable:
            mutable = set()
        allow_caches = _module_registers_cache(ctx.tree)
        for node in ctx.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_stage_kernel(node):
                continue
            local_names = {a.arg for a in node.args.args + node.args.kwonlyargs}
            if node.args.vararg is not None:
                local_names.add(node.args.vararg.arg)
            if node.args.kwarg is not None:
                local_names.add(node.args.kwarg.arg)
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Global, ast.Nonlocal)):
                    yield ctx.violation(
                        self.id,
                        inner,
                        f"stage kernel {node.name!r} declares "
                        f"{'global' if isinstance(inner, ast.Global) else 'nonlocal'}"
                        f" {', '.join(inner.names)} — stage kernels must be "
                        "pure functions of their arguments",
                    )
                if isinstance(inner, ast.Assign):
                    for target in inner.targets:
                        if isinstance(target, ast.Name):
                            local_names.add(target.id)
                if isinstance(inner, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(inner.target, ast.Name):
                        local_names.add(inner.target.id)
            for inner in ast.walk(node):
                if not (isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)):
                    continue
                if inner.id not in mutable or inner.id in local_names:
                    continue
                if allow_caches and _CACHE_NAME_HINT in inner.id.lower():
                    continue  # a registered memoisation cache: sanctioned
                yield ctx.violation(
                    self.id,
                    inner,
                    f"stage kernel {node.name!r} reads module-level mutable "
                    f"state {inner.id!r} — the same node must compute the "
                    "same artifact in every worker; pass it as an argument "
                    "or go through a registered cache",
                )


register_check(StagePurityCheck())
