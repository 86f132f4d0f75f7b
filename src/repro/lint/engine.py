"""simlint rule engine: registry, visitor dispatch, and the runner.

Rules come in two shapes:

* :class:`FileRule` — AST-local checks.  A rule declares interest in
  node types by defining ``visit_<NodeType>`` methods; the engine walks
  each file's AST **once** and dispatches every node to the rules that
  care, so adding rules does not add walks.
* :class:`ProjectRule` — cross-module checks over the
  :class:`~repro.lint.symbols.SymbolTable` (registry reachability,
  enum-member coverage, documentation coverage).

Register a rule with the :func:`rule` decorator; the CLI and tests
instantiate the whole catalog through :func:`make_rules`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple, Type

from repro.lint.findings import Finding, Severity
from repro.lint.symbols import ModuleInfo, SymbolTable, parse_module

#: Rule id reserved for files the engine cannot parse.
PARSE_ERROR_RULE_ID = "GRIT-P000"


class Rule:
    """Base class carrying a rule's identity and scoping."""

    #: Stable identifier reported next to every finding.
    rule_id: str = ""
    #: One-line summary shown by ``lint --list-rules`` and the docs.
    description: str = ""
    #: Default severity of this rule's findings.
    severity: Severity = Severity.ERROR
    #: Default fix hint attached to findings (rules may override per
    #: finding).
    hint: str = ""
    #: Package-relative path prefixes the rule runs on (None = all).
    scope: Tuple[str, ...] | None = None

    def applies_to(self, relpath: str) -> bool:
        """True when the rule should inspect the given module."""
        if self.scope is None:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope)

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        """Build a finding anchored at ``node`` in ``module``."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint if hint is None else hint,
        )


class FileRule(Rule):
    """AST-local rule; define ``visit_<NodeType>`` methods."""

    def visitor_methods(self) -> Dict[str, object]:
        """Map of AST node type name -> bound visitor method."""
        methods: Dict[str, object] = {}
        for name in dir(self):
            if name.startswith("visit_"):
                methods[name[len("visit_"):]] = getattr(self, name)
        return methods


class ProjectRule(Rule):
    """Whole-project rule over the symbol table."""

    def check_project(self, symbols: SymbolTable) -> Iterator[Finding]:
        """Yield findings for cross-module violations."""
        raise NotImplementedError


_REGISTRY: List[Type[Rule]] = []


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global catalog."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} needs a rule_id")
    if any(existing.rule_id == cls.rule_id for existing in _REGISTRY):
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY.append(cls)
    return cls


def registered_rules() -> List[Type[Rule]]:
    """The rule catalog (importing the bundled rule modules on demand)."""
    # The rules package registers itself on import; imported lazily so
    # rule modules can import this module's base classes.
    import repro.lint.rules  # noqa: F401  (import for side effect)

    return list(_REGISTRY)


def make_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    catalog = sorted(registered_rules(), key=lambda cls: cls.rule_id)
    return [cls() for cls in catalog]


def check_module(module: ModuleInfo, rules: Iterable[Rule]) -> List[Finding]:
    """Run the file-scope rules on one parsed module (single AST walk)."""
    dispatch: Dict[str, List[object]] = {}
    for candidate in rules:
        if not isinstance(candidate, FileRule):
            continue
        if not candidate.applies_to(module.relpath):
            continue
        for node_type, method in candidate.visitor_methods().items():
            dispatch.setdefault(node_type, []).append(method)
    findings: List[Finding] = []
    if not dispatch:
        return findings
    for node in ast.walk(module.tree):
        for method in dispatch.get(type(node).__name__, ()):
            produced = method(node, module)
            if produced:
                findings.extend(produced)
    return findings


def lint_source(
    source: str,
    relpath: str = "module.py",
    rules: Iterable[Rule] | None = None,
) -> List[Finding]:
    """Lint a source snippet as if it lived at ``relpath``.

    This is the unit-test entry point: scoped rules see ``relpath``, so
    fixtures can opt in or out of the simulation-only determinism rules.
    Only file-scope rules run (there is no project to cross-check).
    """
    tree = ast.parse(source, filename=relpath)
    module = ModuleInfo(
        relpath=relpath, path=Path(relpath), source=source, tree=tree
    )
    active = list(rules) if rules is not None else make_rules()
    findings = check_module(module, active)
    findings.sort(key=Finding.sort_key)
    return findings


class LintEngine:
    """Runs the full rule catalog over one package tree."""

    def __init__(
        self,
        package_root: Path,
        repo_root: Path | None = None,
        rules: Iterable[Rule] | None = None,
    ) -> None:
        self.package_root = package_root
        self.repo_root = repo_root
        self.rules = list(rules) if rules is not None else make_rules()

    def run(self, paths: Iterable[Path] | None = None) -> List[Finding]:
        """Lint the package (or just ``paths``) and return findings.

        Project-wide rules always see the whole package; explicit
        ``paths`` narrow only the file-scope rules (and may point at
        files outside the package, e.g. violation fixtures — those are
        checked by every unscoped rule).
        """
        symbols = SymbolTable.scan(self.package_root, self.repo_root)
        findings: List[Finding] = [
            Finding(
                rule_id=PARSE_ERROR_RULE_ID,
                severity=Severity.ERROR,
                path=relpath,
                line=line,
                message=f"file does not parse: {message}",
                hint="fix the syntax error",
            )
            for relpath, line, message in symbols.parse_failures
        ]
        for module in self._select_modules(symbols, paths):
            if isinstance(module, Finding):
                findings.append(module)
            else:
                findings.extend(check_module(module, self.rules))
        for candidate in self.rules:
            if isinstance(candidate, ProjectRule):
                findings.extend(candidate.check_project(symbols))
        findings.sort(key=Finding.sort_key)
        return findings

    def _select_modules(
        self, symbols: SymbolTable, paths: Iterable[Path] | None
    ) -> List["ModuleInfo | Finding"]:
        if paths is None:
            return list(symbols.iter_modules())
        selected: List[ModuleInfo | Finding] = []
        for path in paths:
            resolved = path.resolve()
            if resolved.is_dir():
                for file in sorted(resolved.rglob("*.py")):
                    selected.append(self._load_path(symbols, file))
            else:
                selected.append(self._load_path(symbols, resolved))
        return selected

    def _load_path(
        self, symbols: SymbolTable, path: Path
    ) -> "ModuleInfo | Finding":
        """Map a filesystem path onto a parsed module.

        Files inside the package reuse the symbol table's parse; outside
        files (fixtures) are parsed ad hoc and addressed by file name,
        which keeps them visible to every unscoped rule.  Unparsable
        files come back as a parse-error finding.
        """
        try:
            relpath = path.relative_to(self.package_root.resolve()).as_posix()
        except ValueError:
            relpath = path.name
        cached = symbols.module(relpath)
        if cached is not None:
            return cached
        try:
            return parse_module(path, relpath)
        except SyntaxError as exc:
            return Finding(
                rule_id=PARSE_ERROR_RULE_ID,
                severity=Severity.ERROR,
                path=relpath,
                line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error",
            )
        except OSError as exc:
            return Finding(
                rule_id=PARSE_ERROR_RULE_ID,
                severity=Severity.ERROR,
                path=relpath,
                line=1,
                message=f"cannot read file: {exc.strerror or exc}",
                hint="check the path passed to `lint`",
            )
