"""The rule engine: AST visiting, suppressions, and the rule registry.

Rules are small classes registered with :func:`register`; the
:class:`Analyzer` parses each file once, annotates the tree with parent
links and an import-alias table, and hands a :class:`LintContext` to
every applicable rule.  Findings flow through inline suppressions
(``# lint: disable=RULE`` on the offending line, or
``# lint: disable-file=RULE`` anywhere in the file) before they are
fingerprinted and, optionally, filtered against a committed baseline
(:mod:`repro.analysis.baseline`).

Determinism: files are analyzed in sorted path order, rules run in
registration order within a file, and the resulting finding list is
totally ordered by :func:`repro.analysis.findings.sort_findings` — the
engine never consults wall-clock time, environment, or hash order that
could vary between runs.
"""

from __future__ import annotations

import ast
import os
import re
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # circular at runtime (iprules -> rules -> engine)
    from repro.analysis.callgraph import Project
    from repro.analysis.iprules import ProjectRule

from repro.analysis.findings import (
    Finding,
    Report,
    fingerprinted,
    sort_findings,
)

#: Rule lists are comma-separated ids; anything after the list (a
#: justification, ``- why this is fine``) is ignored.
_RULE_LIST = r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
_DISABLE_LINE_RE = re.compile(r"#\s*lint:\s*disable=" + _RULE_LIST)
_DISABLE_FILE_RE = re.compile(r"#\s*lint:\s*disable-file=" + _RULE_LIST)


def _parse_rule_list(text: str) -> Set[str]:
    return {part.strip() for part in text.split(",") if part.strip()}


class LintContext:
    """Everything a rule needs to inspect one module."""

    def __init__(self, path: str, module: str, source: str,
                 tree: ast.Module):
        #: Display path (posix, relative to the analysis invocation).
        self.path = path
        #: Dotted module name inferred from the package layout (used by
        #: scope-limited rules, e.g. "only repro.sim / repro.core").
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: local name -> fully qualified import target ("t" -> "time",
        #: "dt" -> "datetime.datetime", ...).
        self.aliases: Dict[str, str] = {}
        #: names rebound by assignment/def at module level; qualified
        #: name resolution refuses these (a local ``time = ...`` shadows
        #: the module).
        self.shadowed: Set[str] = set()
        #: line -> the full line span of the statement header it belongs
        #: to (decorators + def/class signature), so a suppression
        #: comment anywhere on a decorated ``def`` header suppresses
        #: findings attributed to any of its lines.
        self._header_spans: Dict[int, Tuple[int, ...]] = {}
        self._collect_imports()
        self._link_parents()
        self._collect_header_spans()

    # -- tree preparation ---------------------------------------------------

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.asname is not None:
                        self.aliases[item.asname] = item.name
                    else:
                        head = item.name.split(".", 1)[0]
                        self.aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports: targets stay local
                for item in node.names:
                    local = item.asname or item.name
                    self.aliases[local] = f"{node.module}.{item.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                self.shadowed.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.shadowed.add(target.id)

    def _link_parents(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child._lint_parent = node  # type: ignore[attr-defined]

    def _collect_header_spans(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            start = node.lineno
            for decorator in node.decorator_list:
                start = min(start, decorator.lineno)
            end = node.body[0].lineno - 1 if node.body else node.lineno
            end = max(end, node.lineno)
            if end <= start:
                continue
            span = tuple(range(start, end + 1))
            for lineno in span:
                self._header_spans.setdefault(lineno, span)

    # -- helpers rules call -------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, "_lint_parent", None)

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Resolve ``node`` (a Name/Attribute chain) through the import
        table to a dotted name, or None when it is not statically
        resolvable (calls on computed objects, shadowed names)."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = current.id
        resolved = self.aliases.get(head)
        if resolved is None:
            # Unimported bare name: builtins resolve to themselves
            # unless shadowed by a module-level binding.
            if head in self.shadowed:
                return None
            resolved = head
        parts.append(resolved)
        return ".".join(reversed(parts))

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    # -- suppressions -------------------------------------------------------

    def suppressed_rules(self, lineno: int) -> Set[str]:
        """Inline suppressions effective for ``lineno``.

        Lookup is normalized over statement header spans: a finding on
        a decorator line honours a ``# lint: disable=`` comment on the
        decorated ``def`` line (and vice versa) — the header is one
        statement even though it covers several physical lines.
        """
        rules: Set[str] = set()
        for span_line in self._header_spans.get(lineno, (lineno,)):
            if 1 <= span_line <= len(self.lines):
                match = _DISABLE_LINE_RE.search(self.lines[span_line - 1])
                if match:
                    rules |= _parse_rule_list(match.group(1))
        return rules

    def file_suppressed_rules(self) -> Set[str]:
        rules: Set[str] = set()
        for line in self.lines:
            match = _DISABLE_FILE_RE.search(line)
            if match:
                rules |= _parse_rule_list(match.group(1))
        return rules


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``severity``/``description`` and implement
    :meth:`check`; :meth:`applies_to` scopes a rule to part of the tree
    (by dotted module name).
    """

    id = "RULE000"
    severity = "error"
    description = ""

    def applies_to(self, module: str) -> bool:
        return True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover - generator template

    def finding(self, ctx: LintContext, node: ast.AST,
                message: str) -> Finding:
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(rule=self.id, severity=self.severity, path=ctx.path,
                       line=lineno, col=col, message=message,
                       snippet=ctx.line_text(lineno))


#: The default rule registry, in registration order.
RULES: List[Rule] = []


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    RULES.append(cls())
    return cls


def rule_index(rules: Optional[Sequence[Rule]] = None
               ) -> Dict[str, Tuple[str, str]]:
    """rule id -> (severity, description), for SARIF and docs."""
    return {rule.id: (rule.severity, rule.description)
            for rule in (RULES if rules is None else rules)}


class Analyzer:
    """Runs a rule set over files / directory trees.

    :meth:`analyze_file` / :meth:`analyze_source` stay strictly
    per-file (they power unit tests and editor integrations);
    :meth:`analyze_paths` additionally assembles the whole-program
    view (:mod:`repro.analysis.symbols` / ``callgraph`` / ``dataflow``)
    and runs the interprocedural rule pack over it, from the one
    :class:`LintContext` each file is parsed into.
    ``project_rules=()`` disables the interprocedural pass.
    """

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 project_rules: Optional[Sequence["ProjectRule"]] = None):
        self.rules: List[Rule] = list(RULES if rules is None else rules)
        if project_rules is None:
            from repro.analysis.iprules import PROJECT_RULES
            project_rules = PROJECT_RULES
        self.project_rules: List["ProjectRule"] = list(project_rules)

    # -- file discovery -----------------------------------------------------

    @classmethod
    def _python_files(cls, paths: Iterable[str]) -> List[str]:
        files: List[str] = []
        for path in paths:
            files.extend(cls._iter_python_files(path))
        return sorted(set(files))

    @staticmethod
    def _iter_python_files(path: str) -> List[str]:
        if os.path.isfile(path):
            return [path]
        found: List[str] = []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.join(dirpath, name))
        return found

    @staticmethod
    def _module_name(file_path: str) -> str:
        """Dotted module inferred by walking up through ``__init__.py``
        package directories (so ``src/repro/core/errors.py`` becomes
        ``repro.core.errors`` regardless of where the tree lives)."""
        parts = [os.path.splitext(os.path.basename(file_path))[0]]
        directory = os.path.dirname(os.path.abspath(file_path))
        while os.path.isfile(os.path.join(directory, "__init__.py")):
            parts.append(os.path.basename(directory))
            parent = os.path.dirname(directory)
            if parent == directory:
                break
            directory = parent
        module = ".".join(reversed(parts))
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        return module

    @staticmethod
    def _display_path(file_path: str) -> str:
        absolute = os.path.abspath(file_path)
        cwd = os.getcwd()
        if absolute.startswith(cwd + os.sep):
            absolute = absolute[len(cwd) + 1:]
        return absolute.replace(os.sep, "/")

    # -- analysis -----------------------------------------------------------

    def _load_context(self, file_path: str) -> LintContext:
        """Read and parse one file — the only parse it gets."""
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        display = self._display_path(file_path)
        return LintContext(path=display,
                           module=self._module_name(file_path),
                           source=source,
                           tree=ast.parse(source, filename=display))

    def _check(self, ctx: LintContext) -> List[Finding]:
        """Run the per-file rules over one context (suppression-
        filtered, unsorted, not yet fingerprinted)."""
        file_suppressed = ctx.file_suppressed_rules()
        findings: List[Finding] = []
        for rule in self.rules:
            if rule.id in file_suppressed:
                continue
            if not rule.applies_to(ctx.module):
                continue
            for finding in rule.check(ctx):
                if rule.id in ctx.suppressed_rules(finding.line):
                    continue
                findings.append(finding)
        return findings

    def analyze_source(self, source: str, path: str = "<memory>",
                       module: str = "") -> List[Finding]:
        """Run the rules over one source string (see :meth:`_check`)."""
        tree = ast.parse(source, filename=path)
        return self._check(LintContext(
            path=path, module=module or "<memory>", source=source,
            tree=tree))

    def analyze_file(self, file_path: str) -> List[Finding]:
        return self._check(self._load_context(file_path))

    def analyze_paths(self, paths: Iterable[str]) -> Report:
        """Analyze files/trees; returns a fingerprinted, sorted report.

        Each file is parsed once: its context feeds the per-function
        rules and the module facts the interprocedural pack then runs
        over.
        """
        from repro.analysis.callgraph import Project
        from repro.analysis.symbols import ModuleFacts, extract_module
        findings: List[Finding] = []
        analyzed: List[str] = []
        modules: Dict[str, ModuleFacts] = {}
        for file_path in self._python_files(paths):
            ctx = self._load_context(file_path)
            analyzed.append(ctx.path)
            findings.extend(self._check(ctx))
            if self.project_rules:
                # Module-name collisions (two loose fixture files
                # sharing a stem): first in sorted path order wins.
                modules.setdefault(ctx.module, extract_module(ctx))
        if self.project_rules:
            from repro.analysis.dataflow import Dataflow
            project = Project(modules)
            flow = Dataflow(project)
            for rule in self.project_rules:
                findings.extend(rule.check(project, flow))
        report = Report(findings=fingerprinted(findings), analyzed=analyzed)
        report.findings = sort_findings(report.findings)
        return report

    def build_project(self, paths: Iterable[str]) -> "Project":
        """Assemble the whole-program view (symbol tables + call graph)
        for the given files/trees on its own, skipping any file that
        does not parse."""
        from repro.analysis.callgraph import Project
        from repro.analysis.symbols import ModuleFacts, extract_module
        modules: Dict[str, ModuleFacts] = {}
        for file_path in self._python_files(paths):
            try:
                ctx = self._load_context(file_path)
            except SyntaxError:
                continue
            modules.setdefault(ctx.module, extract_module(ctx))
        return Project(modules)
