"""Hygiene rules: Python footguns that bite simulators in particular.

A mutable default argument is one shared object across *every*
simulation a process runs — state leaking between runs looks exactly
like nondeterminism.  (Bare ``except:`` handlers are ruff's E722.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileRule, rule
from repro.lint.findings import Finding
from repro.lint.symbols import ModuleInfo

#: Constructor calls that build a fresh mutable container.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
     "Counter", "deque"}
)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MUTABLE_CONSTRUCTORS:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTABLE_CONSTRUCTORS
        ):
            return True
    return False


@rule
class MutableDefaultRule(FileRule):
    """No mutable default arguments anywhere in the package."""

    rule_id = "GRIT-H001"
    description = (
        "function defaults must not be mutable ([], {}, set(), ...): "
        "the one instance is shared across every call and every run"
    )
    hint = "default to None and create the container inside the function"

    def visit_FunctionDef(
        self, node: ast.FunctionDef, module: ModuleInfo
    ) -> Iterator[Finding]:
        yield from self._check_args(node, node.args, module)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, module: ModuleInfo
    ) -> Iterator[Finding]:
        yield from self._check_args(node, node.args, module)

    def visit_Lambda(
        self, node: ast.Lambda, module: ModuleInfo
    ) -> Iterator[Finding]:
        yield from self._check_args(node, node.args, module)

    def _check_args(
        self, owner: ast.AST, args: ast.arguments, module: ModuleInfo
    ) -> Iterator[Finding]:
        name = getattr(owner, "name", "<lambda>")
        defaults = list(args.defaults) + [
            default for default in args.kw_defaults if default is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                yield self.finding(
                    module,
                    default,
                    f"mutable default argument in {name}()",
                )
