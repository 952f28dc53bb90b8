"""Core lint types: violations, per-file contexts and the check contract.

``repro.lint`` is a *codebase-specific* static-analysis pass: its checks
encode the conventions the reproduction's correctness story rests on
(reference oracles, read-only cached arrays, seeded randomness, lock
discipline, registry completeness, engine parity) rather than general
style.  This module holds the pieces every check shares:

* :class:`Violation` — one finding, formatted ``path:line: ID message``;
* :class:`ModuleContext` — one parsed source file (AST + ``# repro:
  noqa[...]`` suppression map + parent links);
* :class:`ProjectContext` — all linted modules plus the test sources the
  cross-file checks (oracle pairing) consult;
* :class:`Check` — the contract a check implements and registers via
  :func:`repro.lint.registry.register_check`.

Suppressions use the dedicated ``# repro: noqa[RPR001]`` marker (one or
more comma-separated check ids, or bare ``# repro: noqa`` for a blanket
line suppression) so they never collide with flake8/ruff's ``# noqa``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "Violation",
    "ModuleContext",
    "ProjectContext",
    "Check",
    "dotted_name",
    "call_name",
    "parent_of",
    "enclosing_function",
    "iter_scopes",
    "module_bindings",
    "lru_instances",
    "registers_cache",
]

#: The suppression marker: ``# repro: noqa`` or ``# repro: noqa[RPR001,RPR003]``.
NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)

_PARENT = "_repro_lint_parent"


@dataclass(frozen=True)
class Violation:
    """One finding: ``check`` (e.g. ``"RPR002"``) at ``path:line``."""

    check: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.check} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "check": self.check,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


def _noqa_map(source: str) -> dict[int, frozenset[str] | None]:
    """Line -> suppressed check ids (``None`` = blanket suppression)."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line:
            continue
        m = NOQA_RE.search(line)
        if m is None:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip()
            )
    return out


def _link_parents(tree: ast.AST) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            setattr(child, _PARENT, parent)


def parent_of(node: ast.AST) -> ast.AST | None:
    """The syntactic parent of ``node`` (linked at parse time)."""
    return getattr(node, _PARENT, None)


def enclosing_function(node: ast.AST) -> ast.AST | None:
    """The nearest enclosing function/lambda definition, if any."""
    cur = parent_of(node)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return cur
        cur = parent_of(cur)
    return None


def dotted_name(node: ast.AST) -> str | None:
    """Best-effort dotted name of a ``Name``/``Attribute`` chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's callee (``None`` for computed callees)."""
    return dotted_name(node.func)


def module_bindings(tree: ast.Module) -> Iterator[tuple[str, ast.expr]]:
    """``(name, value)`` of every top-level ``name = value`` binding."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, value


def lru_instances(tree: ast.Module) -> set[str]:
    """Module-level names bound to ``LRU(...)`` (``repro.util.caches.LRU``)."""
    return {
        name
        for name, value in module_bindings(tree)
        if isinstance(value, ast.Call)
        and (call_name(value) or "").split(".")[-1] == "LRU"
    }


def registers_cache(tree: ast.Module) -> bool:
    """Does the module own a registered cross-call cache — a
    ``register_cache(...)`` call or a module-level ``LRU`` instance?"""
    if lru_instances(tree):
        return True
    return any(
        isinstance(node, ast.Call) and call_name(node) == "register_cache"
        for node in ast.walk(tree)
    )


class ModuleContext:
    """One parsed source file, with noqa map and AST parent links."""

    def __init__(self, path: str, relpath: str, source: str) -> None:
        self.path = path
        #: Forward-slash path relative to the lint root (used by checks
        #: that scope themselves to specific files or packages).
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.tree: ast.Module = ast.parse(source, filename=path)
        _link_parents(self.tree)
        self.noqa = _noqa_map(source)

    def suppressed(self, check: str, line: int) -> bool:
        codes = self.noqa.get(line, _MISSING)
        if codes is _MISSING:
            return False
        return codes is None or check.upper() in codes  # type: ignore[operator]

    def violation(self, check: str, node: ast.AST | int, message: str) -> Violation:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Violation(check=check, path=self.path, line=line, message=message)

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModuleContext({self.relpath!r})"


_MISSING: object = object()


@dataclass
class ProjectContext:
    """Everything a cross-file check may consult."""

    modules: list[ModuleContext] = field(default_factory=list)
    #: ``(path, source)`` of every test file found under the project's
    #: ``tests/`` directory (empty when no tests directory was located).
    tests: list[tuple[str, str]] = field(default_factory=list)

    _test_blob: str | None = field(default=None, repr=False)

    @property
    def test_blob(self) -> str:
        """All test sources concatenated (for referenced-from-tests scans)."""
        if self._test_blob is None:
            self._test_blob = "\n".join(src for _, src in self.tests)
        return self._test_blob

    def references_in_tests(self, name: str) -> bool:
        return re.search(rf"\b{re.escape(name)}\b", self.test_blob) is not None


def iter_scopes(
    tree: ast.Module,
) -> Iterator[tuple[str, dict[str, ast.FunctionDef | ast.AsyncFunctionDef]]]:
    """Yield ``(scope name, {function name: def node})`` per namespace.

    One entry for the module's top level (scope name ``""``) and one per
    top-level class (its methods) — the namespaces in which oracle twins
    and ``*_reference`` siblings are expected to live side by side.
    """
    top: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            top[node.name] = node
    yield "", top
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item.name] = item
            yield node.name, methods


class Check:
    """One registered invariant check.

    Subclasses set ``id`` (``"RPRnnn"``), ``name`` (short slug),
    ``summary`` (one line, shown by ``--list``) and ``scope``:

    * ``"module"`` — :meth:`run` is called once per parsed file (in
      parallel across files);
    * ``"project"`` — :meth:`run_project` is called once with the whole
      :class:`ProjectContext` (for cross-file invariants).
    """

    id: str = "RPR000"
    name: str = "check"
    summary: str = ""
    scope: str = "module"

    def run(self, ctx: ModuleContext) -> Iterable[Violation]:
        return ()

    def run_project(self, project: ProjectContext) -> Iterable[Violation]:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Check {self.id} {self.name}>"
