"""Cross-module consistency rules over the project symbol table.

These encode repo-specific wiring contracts that no generic linter
knows: every policy module must be reachable from the registry (or the
CLI silently cannot build it), every :class:`EventKind` member must be
emitted somewhere (or the event log silently under-reports), every
latency charge must name a :class:`LatencyCategory` member (or Figure 3
accounting silently misattributes), and every CLI subcommand must be
documented.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileRule, ProjectRule, rule
from repro.lint.findings import Finding
from repro.lint.symbols import ModuleInfo, SymbolTable

#: Policy modules that are infrastructure, not registrable policies.
_POLICY_INFRA = frozenset({"__init__.py", "base.py", "registry.py"})

_POLICIES_DIR = "policies/"
_REGISTRY_PATH = "policies/registry.py"
_EVENTS_PATH = "stats/events.py"
_CLI_PATH = "cli.py"
_CATALOG_PATH = "obs/catalog.py"
_OBS_DOC = "docs/observability.md"
_POLICIES_BASE_PATH = "policies/base.py"


@rule
class PolicyRegistryRule(ProjectRule):
    """Every policy module is reachable from the policy registry."""

    rule_id = "GRIT-C001"
    description = (
        "every module in policies/ must be imported by "
        "policies/registry.py so its policies are constructible by name"
    )
    hint = "import it in policies/registry.py and add a _FACTORIES entry"

    def check_project(self, symbols: SymbolTable) -> Iterator[Finding]:
        if symbols.module(_REGISTRY_PATH) is None:
            return
        imported = symbols.imported_modules(_REGISTRY_PATH)
        for info in symbols.modules_under(_POLICIES_DIR):
            name = info.relpath[len(_POLICIES_DIR):]
            if "/" in name or name in _POLICY_INFRA:
                continue
            module_name = f"repro.policies.{name[:-3]}"
            if module_name not in imported:
                yield self.finding(
                    info,
                    info.tree,
                    f"policy module {module_name} is not imported by "
                    f"{_REGISTRY_PATH}",
                )


@rule
class EventEmissionRule(ProjectRule):
    """Every EventKind member is emitted (or consumed) somewhere."""

    rule_id = "GRIT-C002"
    description = (
        "every EventKind member must be referenced outside stats/"
        "events.py; an unemitted kind means the event log lies by "
        "omission"
    )
    hint = "emit the event where the machine performs it, or delete it"

    def check_project(self, symbols: SymbolTable) -> Iterator[Finding]:
        events = symbols.module(_EVENTS_PATH)
        if events is None:
            return
        members = symbols.enum_members(_EVENTS_PATH, "EventKind")
        if not members:
            return
        uses = symbols.attribute_uses("EventKind")
        for member, line in members:
            used_elsewhere = any(
                relpath != _EVENTS_PATH for relpath, _ in uses.get(member, ())
            )
            if not used_elsewhere:
                yield Finding(
                    rule_id=self.rule_id,
                    path=_EVENTS_PATH,
                    line=line,
                    message=(
                        f"EventKind.{member} is never emitted outside "
                        f"{_EVENTS_PATH}"
                    ),
                    hint=self.hint,
                )


@rule
class LatencyChargeRule(FileRule):
    """Latency charges must name a LatencyCategory member."""

    rule_id = "GRIT-C003"
    description = (
        "the first argument of every .charge(...) call must be a "
        "LatencyCategory member (or a variable holding one), never a "
        "literal"
    )
    hint = "charge(LatencyCategory.<member>, cycles)"

    def visit_Call(
        self, node: ast.Call, module: ModuleInfo
    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "charge":
            return
        if not node.args:
            return
        category = node.args[0]
        if isinstance(category, ast.Name):
            return
        if isinstance(category, ast.Attribute):
            return
        if isinstance(category, ast.Subscript) and (
            isinstance(category.value, ast.Name)
            and category.value.id == "LatencyCategory"
        ):
            return
        yield self.finding(
            module,
            category,
            "latency charge with a non-LatencyCategory first argument",
        )


@rule
class MetricCatalogRule(ProjectRule):
    """Every catalog metric is emitted somewhere and documented."""

    rule_id = "GRIT-C005"
    description = (
        "every metric constant in obs/catalog.py must be referenced "
        "outside the catalog (via catalog.<NAME>) and its series name "
        "documented in docs/observability.md"
    )
    hint = (
        "feed the metric from the sampler or an event hook, and list "
        "its name in docs/observability.md"
    )

    def check_project(self, symbols: SymbolTable) -> Iterator[Finding]:
        catalog = symbols.module(_CATALOG_PATH)
        if catalog is None:
            return
        uses = symbols.attribute_uses("catalog")
        obs_doc = symbols.doc_texts.get(_OBS_DOC)
        for node in catalog.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name) or not target.id.isupper():
                continue
            value = node.value
            if not isinstance(value, ast.Constant) or not isinstance(
                value.value, str
            ):
                continue
            name = target.id
            used_elsewhere = any(
                relpath != _CATALOG_PATH
                for relpath, _ in uses.get(name, ())
            )
            if not used_elsewhere:
                yield self.finding(
                    catalog,
                    node,
                    f"metric constant {name} is never referenced outside "
                    f"{_CATALOG_PATH}; the catalog promises a series "
                    f"nothing emits",
                )
            if obs_doc is not None and value.value not in obs_doc:
                yield self.finding(
                    catalog,
                    node,
                    f"metric {value.value!r} is not documented in "
                    f"{_OBS_DOC}",
                )


@rule
class MechanicExecutorRule(ProjectRule):
    """Every Mechanic member has a statically visible executor."""

    rule_id = "GRIT-C006"
    description = (
        "every Mechanic enum member must be registered with an "
        "executor — via an @executes(Mechanic.X) decorator or an "
        "executor.register(Mechanic.X, fn) call — or fault dispatch "
        "raises PolicyError at runtime"
    )
    hint = (
        "add an @executes(Mechanic.<member>) default executor in "
        "uvm/executor.py (or delete the member)"
    )

    def check_project(self, symbols: SymbolTable) -> Iterator[Finding]:
        base = symbols.module(_POLICIES_BASE_PATH)
        if base is None:
            return
        members = symbols.enum_members(_POLICIES_BASE_PATH, "Mechanic")
        if not members:
            return
        registered = set()
        for info in symbols.iter_modules():
            for node in ast.walk(info.tree):
                member = _registered_mechanic(node)
                if member is not None:
                    registered.add(member)
        for member, line in members:
            if member not in registered:
                yield Finding(
                    rule_id=self.rule_id,
                    path=_POLICIES_BASE_PATH,
                    line=line,
                    message=(
                        f"Mechanic.{member} has no registered executor "
                        f"(no @executes or .register call names it)"
                    ),
                    hint=self.hint,
                )


def _registered_mechanic(node: ast.AST) -> str | None:
    """Mechanic member name a call registers an executor for, if any."""
    if not isinstance(node, ast.Call) or not node.args:
        return None
    func = node.func
    if isinstance(func, ast.Name):
        if func.id != "executes":
            return None
    elif isinstance(func, ast.Attribute):
        if func.attr not in ("executes", "register"):
            return None
    else:
        return None
    target = node.args[0]
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "Mechanic"
    ):
        return target.attr
    return None


#: LatencyModel fields that price simulated work.  Reading one of
#: these is a cycle charge; charges route through the timing kernel.
_CHARGING_FIELDS = frozenset({
    "nvlink_latency",
    "nvlink_bytes_per_cycle",
    "pcie_latency",
    "pcie_bytes_per_cycle",
    "local_dram_access",
    "remote_dram_access",
    "host_remote_access",
    "host_fault_service",
    "pipeline_flush",
    "invalidation_per_gpu",
    "gps_store_broadcast",
    "pa_table_memory_access",
    "pa_cache_lookup",
})

#: Modules allowed to read raw charging constants: the kernel itself
#: and the resource models it drives.
_KERNEL_MODULES = frozenset({
    "sim/timing.py",
    "interconnect/link.py",
    "interconnect/topology.py",
    "interconnect/routing.py",
    "interconnect/switch.py",
    "memsys/dram.py",
    "config.py",
    "core/initiator.py",
})


@rule
class TimingKernelRoutingRule(FileRule):
    """Cycle charges route through the timing kernel, nowhere else."""

    rule_id = "GRIT-C007"
    description = (
        "no module outside the timing kernel and its resource models "
        "may read a raw charging constant off a LatencyModel (e.g. "
        "latency.pipeline_flush); new costs go through "
        "repro.sim.timing.TimingKernel so contended mode prices them"
    )
    hint = (
        "call the matching TimingKernel method (machine.kernel.<op>) "
        "instead of reading the LatencyModel field"
    )

    def visit_Attribute(
        self, node: ast.Attribute, module: ModuleInfo
    ) -> Iterator[Finding]:
        if node.attr not in _CHARGING_FIELDS:
            return
        if module.relpath in _KERNEL_MODULES:
            return
        base = node.value
        # Only LatencyModel reads: the base expression must itself be
        # a ``latency`` name or attribute (``latency.pipeline_flush``,
        # ``config.latency.pipeline_flush``, ...).  Same-named kernel
        # *methods* (``kernel.pipeline_flush(...)``) stay legal.
        if isinstance(base, ast.Name):
            if base.id != "latency":
                return
        elif isinstance(base, ast.Attribute):
            if base.attr != "latency":
                return
        else:
            return
        yield self.finding(
            module,
            node,
            f"raw charging constant latency.{node.attr} read outside "
            f"the timing kernel",
        )


#: The module that owns StreamCursor and its batch API.
_CURSOR_OWNER = "sim/pipeline.py"


@rule
class CursorBatchApiRule(FileRule):
    """Engine modules consume cursors through the batch API."""

    rule_id = "GRIT-C008"
    description = (
        "no sim/ module outside sim/pipeline.py may call .next() "
        "directly on a stream cursor; per-access next() loops bypass "
        "the peek_batch()/advance() API the steady-state fast path "
        "and the chunked scalar pipeline are built on"
    )
    hint = (
        "go through TranslationStage.next_access for scalar replay, "
        "or peek()/peek_batch() + advance() for batched consumption"
    )
    scope = ("sim/",)

    def visit_Call(
        self, node: ast.Call, module: ModuleInfo
    ) -> Iterator[Finding]:
        if module.relpath == _CURSOR_OWNER:
            return
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "next":
            return
        if _is_cursor_expr(func.value):
            yield self.finding(
                module,
                node,
                "direct cursor .next() call bypasses the stream "
                "cursor's batch API",
            )


def _is_cursor_expr(node: ast.AST) -> bool:
    """True for receivers that name a stream cursor.

    Matches ``cursor``, ``self.cursor``, ``cursors[g]``,
    ``self.cursors[gpu_id]``, ``stage.cursors[g]``, ... — any name or
    attribute whose terminal identifier is ``cursor``/``cursors``
    (optionally subscripted).
    """
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in ("cursor", "cursors")
    if isinstance(node, ast.Attribute):
        return node.attr in ("cursor", "cursors")
    return False


@rule
class CliDocumentedRule(ProjectRule):
    """Every CLI subcommand appears in README.md or docs/."""

    rule_id = "GRIT-C004"
    description = (
        "every cli.py subcommand (add_parser name) must be mentioned "
        "in README.md or docs/*.md"
    )
    hint = "document the subcommand in README.md or docs/"

    def check_project(self, symbols: SymbolTable) -> Iterator[Finding]:
        cli = symbols.module(_CLI_PATH)
        if cli is None or not symbols.docs_text:
            return
        for node in ast.walk(cli.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr != "add_parser" or not node.args:
                continue
            name_node = node.args[0]
            if not isinstance(name_node, ast.Constant):
                continue
            if not isinstance(name_node.value, str):
                continue
            command = name_node.value
            if command not in symbols.docs_text:
                yield self.finding(
                    cli,
                    node,
                    f"CLI subcommand {command!r} is not documented in "
                    f"README.md or docs/",
                )
