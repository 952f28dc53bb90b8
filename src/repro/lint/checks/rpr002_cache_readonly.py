"""RPR002 — cache read-only: arrays entering a shared LRU must be frozen.

Every cross-call cache in the repository (fold/route/sim LRUs) hands the
*same* array objects to many callers; one in-place mutation would
silently poison every future lookup.  The convention — documented in
``machine/folding.py`` — is that a cache-fill function marks each array
``writeable=False`` (via the ``_frozen`` helper or
``arr.setflags(write=False)``) before the value is inserted.

This check applies to modules that register a cross-call cache (call
``register_cache(...)`` or hold a module-level
:class:`~repro.util.caches.LRU` instance) and flags:

* a ``return`` inside a cache-fill closure (the ``compute()`` naming
  convention used by every memoised kernel) whose value is not provably
  frozen — not a ``_frozen(...)`` call, a literal/scalar, a
  tuple/list of such, or a local previously frozen in the same body;
* a direct insertion — ``<cache dict>[key] = value`` or
  ``<module LRU>.put(key, value)`` — building ``value`` in the same
  function without any ``_frozen(...)``/``setflags(write=False)`` call
  in that function.  Insertions that merely forward a parameter are the
  caller's responsibility, and the direct result of a same-module
  helper that itself freezes counts as frozen.  ``LRU.seed`` freezes
  on its own and is never flagged.

The runtime counterpart is ``REPRO_SANITIZE=1``, which re-checks the
same invariant on every actual cache insertion and hand-out.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import (
    Check,
    ModuleContext,
    Violation,
    call_name,
    dotted_name,
    enclosing_function,
    lru_instances,
    module_bindings,
    registers_cache,
)
from repro.lint.registry import register_check

__all__ = ["CacheReadOnlyCheck"]

#: Names whose call freezes its argument.
_FREEZERS = {"_frozen"}
#: Calls producing scalars (no array to freeze).
_SCALAR_CALLS = {"int", "float", "bool", "str", "len", "min", "max"}
#: Module-level dict names treated as cross-call caches.
_CACHE_NAME_HINT = "cache"


def _module_cache_dicts(tree: ast.Module) -> set[str]:
    """Module-level names bound to dict-like literals and named cache-ish."""
    return {
        name
        for name, value in module_bindings(tree)
        if _is_dict_like(value) and _CACHE_NAME_HINT in name.lower()
    }


def _is_dict_like(node: ast.expr) -> bool:
    if isinstance(node, ast.Dict):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name is not None and name.split(".")[-1] in (
            "dict",
            "OrderedDict",
            "defaultdict",
        )
    return False


def _frozen_locals(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Local names provably frozen within ``fn``'s own body."""
    frozen: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if call_name(node.value) in _FREEZERS:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        frozen.add(target.id)
        if _is_setflags_readonly(node):
            owner = node.func.value  # type: ignore[union-attr]
            name = dotted_name(owner)
            if name is not None:
                frozen.add(name.split(".")[0])
    return frozen


def _is_setflags_readonly(node: ast.AST) -> bool:
    """``x.setflags(write=False)`` (the manual freeze spelling)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr != "setflags":
        return False
    for kw in node.keywords:
        if (
            kw.arg == "write"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
        ):
            return True
    return False


def _is_frozen_expr(node: ast.expr, frozen: set[str]) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(_is_frozen_expr(elt, frozen) for elt in node.elts)
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name is None:
            return False
        short = name.split(".")[-1]
        if short in _FREEZERS or short in _SCALAR_CALLS:
            return True
        return False
    if isinstance(node, ast.Name):
        return node.id in frozen
    return False


def _contains_freeze(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and call_name(node) in _FREEZERS:
            return True
        if _is_setflags_readonly(node):
            return True
    return False


def _freezing_helpers(tree: ast.Module) -> set[str]:
    """Module-level functions whose own body freezes what they build."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _contains_freeze(node)
    }


def _insertion(
    node: ast.AST, cache_dicts: set[str], lrus: set[str]
) -> tuple[str, ast.expr] | None:
    """``(cache name, inserted value)`` of ``cache[key] = value`` or
    ``lru.put(key, value)``, else ``None``."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id in cache_dicts
        ):
            return target.value.id, node.value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "put"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in lrus
        and len(node.args) == 2
    ):
        return node.func.value.id, node.args[1]
    return None


class CacheReadOnlyCheck(Check):
    id = "RPR002"
    name = "cache-readonly"
    summary = (
        "cache-fill functions in modules owning a registered cache or LRU "
        "freeze arrays (_frozen/setflags(write=False)) before insertion"
    )
    scope = "module"

    def run(self, ctx: ModuleContext) -> Iterable[Violation]:
        if not registers_cache(ctx.tree):
            return
        cache_dicts = _module_cache_dicts(ctx.tree)
        lrus = lru_instances(ctx.tree)
        helpers = _freezing_helpers(ctx.tree)
        for node in ctx.walk():
            # Rule A: the compute() cache-fill convention.
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "compute"
            ):
                frozen = _frozen_locals(node)
                for ret in ast.walk(node):
                    if not isinstance(ret, ast.Return) or ret.value is None:
                        continue
                    if enclosing_function(ret) is not node:
                        continue  # a nested def's return is its own affair
                    if not _is_frozen_expr(ret.value, frozen):
                        yield ctx.violation(
                            self.id,
                            ret,
                            "cache-fill compute() returns a value not marked "
                            "read-only (wrap arrays in _frozen(...) or call "
                            ".setflags(write=False) before returning)",
                        )
            # Rule B: direct insertions into a module-level cache.
            hit = _insertion(node, cache_dicts, lrus)
            if hit is None:
                continue
            cache, value = hit
            fn = enclosing_function(node)
            if fn is None or isinstance(fn, ast.Lambda):
                continue  # import-time seeding / lambdas: out of scope
            params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            if isinstance(value, ast.Name) and value.id in params:
                continue  # forwarding a parameter: caller froze it
            if isinstance(value, ast.Call) and call_name(value) in helpers:
                continue  # built by a same-module helper that freezes
            if not _contains_freeze(fn):
                yield ctx.violation(
                    self.id,
                    node,
                    f"insertion into {cache!r} without any "
                    "_frozen(...)/setflags(write=False) call in "
                    f"{fn.name!r} — cached arrays must be read-only",
                )


register_check(CacheReadOnlyCheck())
