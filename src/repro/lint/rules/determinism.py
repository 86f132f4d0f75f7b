"""Determinism rules for the simulation core.

The engine, the UVM driver, and the policies must be bit-reproducible:
a run is a pure function of (config, trace, policy).  Wall-clock reads,
unseeded random number generators, and iteration order of unordered
containers all break that silently — results drift between runs without
a single test failing.  These rules fence the simulation directories
(``sim/``, ``uvm/``, ``policies/``) off from those constructs.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.engine import FileRule, rule
from repro.lint.findings import Finding
from repro.lint.symbols import ModuleInfo

#: Package-relative directories holding simulation state machines.
SIMULATION_SCOPE = ("sim/", "uvm/", "policies/")

#: Wall-clock reading functions of the ``time`` module.
_TIME_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock",
    }
)

#: Current-moment constructors of the ``datetime`` module.
_DATETIME_FUNCTIONS = frozenset({"now", "utcnow", "today"})

#: ``random``/``numpy.random`` names that are fine *when seeded*.
_SEEDED_CONSTRUCTORS = frozenset(
    {"Random", "SystemRandom", "default_rng", "RandomState",
     "SeedSequence", "Generator", "PCG64", "Philox"}
)

#: Set-producing method names on project objects (PageInfo.holders()).
_SET_RETURNING_METHODS = frozenset(
    {"holders", "union", "intersection", "difference",
     "symmetric_difference"}
)

#: Attributes known to hold sets (PageInfo.replicas).
_SET_ATTRIBUTES = frozenset({"replicas"})


def _root_name(node: ast.AST) -> str | None:
    """Leftmost ``Name`` of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@rule
class WallClockRule(FileRule):
    """No wall-clock reads inside the simulation core."""

    rule_id = "GRIT-D001"
    description = (
        "sim/, uvm/, and policies/ must not read the wall clock "
        "(time.time, datetime.now, ...): simulated time is the only time"
    )
    hint = "derive timing from GPU clocks / cycle counts instead"
    scope = SIMULATION_SCOPE

    def visit_Call(
        self, node: ast.Call, module: ModuleInfo
    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        root = _root_name(func)
        if root == "time" and func.attr in _TIME_FUNCTIONS:
            yield self.finding(
                module, node, f"wall-clock call time.{func.attr}()"
            )
        elif root == "datetime" and func.attr in _DATETIME_FUNCTIONS:
            yield self.finding(
                module, node, f"wall-clock call datetime.{func.attr}()"
            )

    def visit_ImportFrom(
        self, node: ast.ImportFrom, module: ModuleInfo
    ) -> Iterator[Finding]:
        if node.module != "time" or node.level:
            return
        for alias in node.names:
            if alias.name in _TIME_FUNCTIONS:
                yield self.finding(
                    module,
                    node,
                    f"imports wall-clock function time.{alias.name}",
                )


@rule
class UnseededRngRule(FileRule):
    """Only explicitly seeded RNGs inside the simulation core."""

    rule_id = "GRIT-D002"
    description = (
        "sim/, uvm/, and policies/ must not use the global random state "
        "or unseeded generators; every RNG takes an explicit seed"
    )
    hint = "use random.Random(seed) or numpy.random.default_rng(seed)"
    scope = SIMULATION_SCOPE

    def visit_Call(
        self, node: ast.Call, module: ModuleInfo
    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        root = _root_name(func)
        # The global `random.<fn>()` module-level API is one shared,
        # process-wide state; seeded constructor classes are fine.
        if root == "random":
            if func.attr in _SEEDED_CONSTRUCTORS:
                yield from self._require_seed(node, func.attr, module)
            else:
                yield self.finding(
                    module,
                    node,
                    f"global random state call random.{func.attr}()",
                )
            return
        # numpy legacy API: np.random.<fn>() shares numpy's global
        # BitGenerator unless it goes through default_rng/Generator.
        if (
            isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and _root_name(func) in ("np", "numpy")
        ):
            if func.attr in _SEEDED_CONSTRUCTORS:
                yield from self._require_seed(node, func.attr, module)
            else:
                yield self.finding(
                    module,
                    node,
                    f"numpy global random state call "
                    f"numpy.random.{func.attr}()",
                )

    def _require_seed(
        self, node: ast.Call, name: str, module: ModuleInfo
    ) -> Iterator[Finding]:
        if not node.args and not node.keywords:
            yield self.finding(
                module,
                node,
                f"{name}() constructed without a seed",
            )

    def visit_ImportFrom(
        self, node: ast.ImportFrom, module: ModuleInfo
    ) -> Iterator[Finding]:
        if node.module != "random" or node.level:
            return
        for alias in node.names:
            if alias.name not in _SEEDED_CONSTRUCTORS:
                yield self.finding(
                    module,
                    node,
                    f"imports global random state function "
                    f"random.{alias.name}",
                )


#: Statement types that open a new variable scope.
_SCOPE_NODES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ClassDef,
)


def _scope_walk(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested scopes.

    Nested function/class statements are yielded (they are part of this
    scope) but their bodies are not — the rule visits each scope once
    through its own ``visit_*`` entry point.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


@rule
class UnorderedIterationRule(FileRule):
    """No iteration over sets in the simulation core.

    Set iteration order depends on insertion history and (for str keys)
    the process hash seed; when the loop body touches clocks, counters,
    or page state, that order leaks into results.  ``sorted(...)`` makes
    the order explicit and costs nothing at simulation scale.
    """

    rule_id = "GRIT-D003"
    description = (
        "sim/, uvm/, and policies/ must not iterate over sets "
        "(page.replicas, holders(), set expressions); order feeds "
        "cycle accounting"
    )
    hint = "iterate sorted(...) so the order is explicit"
    scope = SIMULATION_SCOPE

    def visit_Module(
        self, node: ast.Module, module: ModuleInfo
    ) -> Iterator[Finding]:
        yield from self._check_scope(node.body, module)

    def visit_FunctionDef(
        self, node: ast.FunctionDef, module: ModuleInfo
    ) -> Iterator[Finding]:
        yield from self._check_scope(node.body, module)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, module: ModuleInfo
    ) -> Iterator[Finding]:
        yield from self._check_scope(node.body, module)

    def visit_ClassDef(
        self, node: ast.ClassDef, module: ModuleInfo
    ) -> Iterator[Finding]:
        yield from self._check_scope(node.body, module)

    def _check_scope(
        self, body: List[ast.stmt], module: ModuleInfo
    ) -> Iterator[Finding]:
        set_names = self._infer_set_names(body)
        for node in _scope_walk(body):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, set_names):
                    yield self.finding(
                        module,
                        node,
                        "for-loop iterates an unordered set",
                    )
            elif isinstance(node, ast.comprehension):
                if self._is_set_expr(node.iter, set_names):
                    yield self.finding(
                        module,
                        node.iter,
                        "comprehension iterates an unordered set",
                    )

    def _infer_set_names(self, body: List[ast.stmt]) -> Set[str]:
        """Names assigned from set-typed expressions in this scope.

        Two passes reach the fixpoint for simple chains like
        ``a = page.holders(); b = a - {gpu}``.
        """
        set_names: Set[str] = set()
        assignments: List[tuple[ast.expr, ast.expr]] = []
        for node in _scope_walk(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    assignments.append((target, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assignments.append((node.target, node.value))
            elif isinstance(node, ast.AugAssign):
                assignments.append((node.target, node.value))
        for _ in range(2):
            for target, value in assignments:
                if isinstance(target, ast.Name) and self._is_set_expr(
                    value, set_names
                ):
                    set_names.add(target.id)
        return set_names

    def _is_set_expr(self, node: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Attribute):
            return node.attr in _SET_ATTRIBUTES
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_names) or (
                self._is_set_expr(node.right, set_names)
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return True
                # tuple()/list()/iter() preserve the set's arbitrary
                # order; sorted() is the sanctioned escape hatch.
                if func.id in ("tuple", "list", "iter") and (
                    len(node.args) == 1
                ):
                    return self._is_set_expr(node.args[0], set_names)
                return False
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_RETURNING_METHODS:
                    return True
                if func.attr == "copy" and self._is_set_expr(
                    func.value, set_names
                ):
                    return True
        return False
