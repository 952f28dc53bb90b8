"""RPR004 — lock discipline: shared mutable caches mutate under a lock.

Callers fold, route and simulate from many threads at once (concurrent
plan runs, a user's own thread pool); the module-level caches and
registries they share are only safe because every mutation happens
under a lock.  A mutation added outside the lock usually *works* on
CPython today and corrupts counters or drops entries under concurrent
callers tomorrow.

Memo caches are :class:`repro.util.caches.LRU` instances, which take
their own lock on every access.  So, in any module:

* a module that registers a cache (``register_cache(...)`` or a
  module-level ``LRU``) may not also hold a bare module-level
  dict/``OrderedDict`` cache (``cache`` in its name) — that cache would
  re-implement the LRU's lock, counters and eviction by hand;
* code may not reach into a module-level ``LRU``'s private state
  (``_CACHE._data``, ``_CACHE._counts``, ...), which bypasses its lock.

The remaining module-level dicts (registries, measurement tables)
mutate under an explicit lock.  Scope — the modules that own shared
state:

* anything under an ``exec/`` package,
* ``machine/folding.py``, ``networks/routing.py``, ``sim/engine.py``,
* any module that both defines a module-level lock (a name containing
  ``lock`` bound at top level) and a module-level dict.

Within a scoped module, every *function-body* mutation of a
module-level dict — subscript assignment/deletion, ``clear``/``pop``/
``popitem``/``update``/``setdefault``/``move_to_end`` — must be
lexically inside a ``with`` statement naming a lock.  Import-time
seeding of registries is exempt (imports are serialised by the
interpreter); reads are exempt (the caches tolerate stale reads by
design — two racing threads may both compute, last write wins).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import (
    Check,
    ModuleContext,
    Violation,
    dotted_name,
    enclosing_function,
    lru_instances,
    module_bindings,
    parent_of,
    registers_cache,
)
from repro.lint.registry import register_check

__all__ = ["LockDisciplineCheck"]

_SCOPED_SUFFIXES = (
    "machine/folding.py",
    "networks/routing.py",
    "sim/engine.py",
)
_MUTATORS = {"clear", "pop", "popitem", "update", "setdefault", "move_to_end"}


def _module_level_dicts(tree: ast.Module) -> set[str]:
    return {name for name, value in module_bindings(tree) if _is_dict_expr(value)}


def _is_dict_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Dict):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name is not None and name.split(".")[-1] in (
            "dict",
            "OrderedDict",
            "defaultdict",
        )
    return False


def _module_level_locks(tree: ast.Module) -> set[str]:
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and "lock" in target.id.lower():
                    out.add(target.id)
    return out


def _in_scope(ctx: ModuleContext, tree: ast.Module) -> bool:
    rel = ctx.relpath
    if "/exec/" in rel or rel.startswith("exec/"):
        return True
    if rel.endswith(_SCOPED_SUFFIXES):
        return True
    return bool(_module_level_locks(tree)) and bool(_module_level_dicts(tree))


def _under_lock(node: ast.AST) -> bool:
    """Is ``node`` lexically inside ``with <something named *lock*>:``?"""
    cur = parent_of(node)
    while cur is not None:
        if isinstance(cur, (ast.With, ast.AsyncWith)):
            for item in cur.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                name = dotted_name(expr)
                if name is not None and "lock" in name.lower():
                    return True
        cur = parent_of(cur)
    return False


class LockDisciplineCheck(Check):
    id = "RPR004"
    name = "lock-discipline"
    summary = (
        "module-level mutable cache dicts in exec/, folding, routing and "
        "the sim engine mutate only inside `with <lock>:` blocks"
    )
    scope = "module"

    def run(self, ctx: ModuleContext) -> Iterable[Violation]:
        yield from self._cache_types(ctx)
        if not _in_scope(ctx, ctx.tree):
            return
        tracked = _module_level_dicts(ctx.tree)
        if not tracked:
            return
        for node in ctx.walk():
            hit: tuple[ast.AST, str, str] | None = None  # (node, dict, verb)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in tracked
                    ):
                        hit = (node, target.value.id, "subscript assignment")
            elif isinstance(node, ast.AugAssign):
                if (
                    isinstance(node.target, ast.Subscript)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id in tracked
                ):
                    hit = (node, node.target.value.id, "augmented assignment")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in tracked
                    ):
                        hit = (node, target.value.id, "deletion")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if (
                    isinstance(owner, ast.Name)
                    and owner.id in tracked
                    and node.func.attr in _MUTATORS
                ):
                    hit = (node, owner.id, f".{node.func.attr}() call")
            if hit is None:
                continue
            where, dict_name, verb = hit
            if enclosing_function(where) is None:
                continue  # import-time registry seeding is single-threaded
            if not _under_lock(where):
                yield ctx.violation(
                    self.id,
                    where,
                    f"unlocked {verb} on module-level cache dict "
                    f"{dict_name!r} — wrap the mutation in `with <lock>:`",
                )


    def _cache_types(self, ctx: ModuleContext) -> Iterable[Violation]:
        """Module-level caches are ``LRU`` instances, used through their
        public methods."""
        if registers_cache(ctx.tree):
            for name, value in module_bindings(ctx.tree):
                if _is_dict_expr(value) and "cache" in name.lower():
                    yield ctx.violation(
                        self.id,
                        value,
                        f"module-level cache {name!r} is a bare dict — make "
                        "it a repro.util.caches.LRU, which owns the lock, "
                        "counters and eviction",
                    )
        lrus = lru_instances(ctx.tree)
        for node in ctx.walk():
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in lrus
                and node.attr.startswith("_")
            ):
                yield ctx.violation(
                    self.id,
                    node,
                    f"{node.value.id}.{node.attr} reaches into an LRU's "
                    "private state, bypassing its lock — use get/put/seed/clear",
                )


register_check(LockDisciplineCheck())
