"""RPR001 — oracle pairing: vectorized kernels stay pinned to references.

The repository's performance story is "whole-array kernels, bit-identical
to a per-record reference" (ROADMAP).  That only holds while every
``*_reference`` oracle (a) has its vectorized twin living in the same
namespace — so the pair can drift apart only by touching both — and
(b) is actually exercised by a property test under ``tests/``, so the
bit-identity claim is enforced rather than asserted in a docstring.

Flagged:

* a public ``X_reference`` function/method whose twin ``X`` — or its
  fused multi-batch form ``X_multi``, which the oracle pins one batch
  (segment) at a time — is not defined in the same module/class
  namespace;
* a public ``X_reference`` that is never referenced (by name) from any
  test file.  When no ``tests/`` directory is found next to the linted
  tree this half is skipped — there is nothing to scan.

Private oracles (``_x_reference``) are exempt from the twin rule: they
back internal loops reached through public oracles (e.g. the sim's
``_run_phase_reference`` behind ``simulate_trace_reference``).
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.base import Check, ProjectContext, Violation, iter_scopes
from repro.lint.registry import register_check

__all__ = ["OraclePairingCheck"]

_SUFFIX = "_reference"


class OraclePairingCheck(Check):
    id = "RPR001"
    name = "oracle-pairing"
    summary = (
        "every public *_reference oracle has a vectorized twin in the same "
        "namespace and is exercised from tests/"
    )
    scope = "project"

    def run_project(self, project: ProjectContext) -> Iterable[Violation]:
        for ctx in project.modules:
            for scope_name, functions in iter_scopes(ctx.tree):
                for name, node in functions.items():
                    if not name.endswith(_SUFFIX) or name.startswith("_"):
                        continue
                    twin = name[: -len(_SUFFIX)]
                    where = f"class {scope_name}" if scope_name else "module"
                    if twin not in functions and f"{twin}_multi" not in functions:
                        yield ctx.violation(
                            self.id,
                            node,
                            f"oracle {name!r} has no vectorized twin "
                            f"{twin!r} in the same {where} namespace",
                        )
                    if project.tests and not project.references_in_tests(name):
                        yield ctx.violation(
                            self.id,
                            node,
                            f"oracle {name!r} is never referenced from any "
                            "test under tests/ — the bit-identity property "
                            "is unenforced",
                        )


register_check(OraclePairingCheck())
