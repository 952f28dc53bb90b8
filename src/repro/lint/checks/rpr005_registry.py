"""RPR005 — registry completeness: definitions reach their registries.

The repository's plugin surfaces are name registries (``AlgorithmSpec``
specs, executor ``Substrate`` factories, arbiter and policy presets) plus
``__all__`` re-export lists.  A definition that never registers is dead
weight with a working import path — plans cannot reach it, the CLI does
not list it, and tests that iterate "every registered X" silently skip
it.  A stale ``__all__`` entry breaks ``from repro.x import *`` and the
documented public surface.

Flagged:

* an ``AlgorithmSpec(...)`` construction that is neither passed to
  ``register(...)`` directly nor via a name later given to a
  ``register*`` call;
* a public ``Substrate`` subclass never named in a
  ``register_executor(...)`` call in its module;
* a public ``Arbiter``/``RoutingPolicy`` subclass never named in a
  ``register*`` call or an ALL-CAPS registry dict (``ARBITERS``,
  ``POLICIES``) in its module;
* an ``__all__`` entry with no matching module-level binding;
* in an ``__init__.py`` that declares ``__all__``: a public module-level
  binding (def/class/import/assignment) missing from ``__all__``.

Private names (leading underscore) and base classes themselves are
exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import Check, ModuleContext, Violation, call_name, dotted_name
from repro.lint.registry import register_check

__all__ = ["RegistryCompletenessCheck"]

#: base class name -> human label for the registration requirement.
_REGISTERED_BASES = {
    "Substrate": "register_executor",
    "Arbiter": "an ARBITERS registry entry or register call",
    "RoutingPolicy": "a POLICIES registry entry or register call",
}


def _register_call_args(tree: ast.Module) -> set[str]:
    """Names referenced inside any ``register*(...)`` call's arguments."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None or not name.split(".")[-1].startswith("register"):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name):
                    out.add(sub.id)
    return out


def _registry_dict_names(tree: ast.Module) -> set[str]:
    """Names referenced inside ALL-CAPS module-level dict literals."""
    out: set[str] = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        if value is None or not isinstance(value, ast.Dict):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id.isupper() for t in targets
        ):
            continue
        for sub in ast.walk(value):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
    return out


def _module_bindings(tree: ast.Module) -> set[str]:
    """Every name bound at module level (defs, classes, imports, assigns)."""
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    return out | {"*"}
                out.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        out.add(sub.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                    out.add(sub.name)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            out.add(target.id)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        out.add(alias.asname or alias.name.split(".")[0])
    return out


def _declared_all(tree: ast.Module) -> tuple[ast.AST, list[str]] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names = [
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                ]
                return node, names
    return None


class RegistryCompletenessCheck(Check):
    id = "RPR005"
    name = "registry-completeness"
    summary = (
        "AlgorithmSpec/Substrate/arbiter definitions are registered "
        "and __all__ matches the module's actual exports"
    )
    scope = "module"

    def run(self, ctx: ModuleContext) -> Iterable[Violation]:
        tree = ctx.tree
        registered = _register_call_args(tree)
        registry_dicts = _registry_dict_names(tree)
        reachable = registered | registry_dicts

        # -- definitions must reach a registry --------------------------
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and call_name(node) == "AlgorithmSpec":
                if not self._spec_registered(node, registered):
                    yield ctx.violation(
                        self.id,
                        node,
                        "AlgorithmSpec(...) constructed but never passed to "
                        "register(...) — the algorithm is unreachable from "
                        "plans and the CLI",
                    )
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for base in node.bases:
                    base_name = (dotted_name(base) or "").split(".")[-1]
                    how = _REGISTERED_BASES.get(base_name)
                    if how is None or node.name == base_name:
                        continue
                    if node.name not in reachable:
                        yield ctx.violation(
                            self.id,
                            node,
                            f"{base_name} subclass {node.name!r} is never "
                            f"registered (expected {how})",
                        )

        # -- __all__ consistency ----------------------------------------
        declared = _declared_all(tree)
        if declared is None:
            return
        all_node, names = declared
        bindings = _module_bindings(tree)
        if "*" in bindings:
            return  # star imports defeat static binding analysis
        for name in names:
            if name not in bindings and name != "__version__":
                yield ctx.violation(
                    self.id,
                    all_node,
                    f"__all__ lists {name!r} but the module never binds it",
                )
        if ctx.relpath.endswith("__init__.py"):
            listed = set(names)
            for name in sorted(bindings):
                if name.startswith("_") or name in listed:
                    continue
                yield ctx.violation(
                    self.id,
                    all_node,
                    f"public package binding {name!r} is missing from "
                    "__all__ — exports and __all__ have drifted apart",
                )

    @staticmethod
    def _spec_registered(node: ast.Call, registered: set[str]) -> bool:
        from repro.lint.base import parent_of

        cur = parent_of(node)
        while cur is not None:
            if isinstance(cur, ast.Call):
                name = call_name(cur)
                if name is not None and name.split(".")[-1].startswith("register"):
                    return True
            if isinstance(cur, ast.Assign):
                return any(
                    isinstance(t, ast.Name) and t.id in registered
                    for t in cur.targets
                )
            cur = parent_of(cur)
        return False


register_check(RegistryCompletenessCheck())
