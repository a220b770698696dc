"""Per-module symbol and reference extraction for whole-program analysis.

The interprocedural layer (:mod:`repro.analysis.callgraph`,
:mod:`repro.analysis.dataflow`) never touches an AST: everything it
needs from a module is distilled here into :class:`ModuleFacts` — the
functions a module defines, the classes with their bases and attribute
types, and every *reference* a function body makes (calls, raises,
environment reads, reserved wire-folder writes, retry-shaped handlers).

Facts come out of the same :class:`~repro.analysis.engine.LintContext`
the per-file rules ran over, so a lint run parses each file once;
cross-module resolution is a pure function of the facts.

The extractor is also where reference *laundering* becomes visible:
for ``clock = time.time; clock()`` or ``functools.partial(time.time)()``
the binding is recorded (``via="alias"`` / ``via="partial"`` with the
binding line), and the dataflow pass reports the call with a witness
chain.  Inside a method (and any def nested in one) ``self`` is bound
to the defining class, so ``self.<m>()``, ``super().<m>()``,
``self.<attr>.<m>()`` on a typed attribute, and ``self._clock()`` on an
attribute alias resolve.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.engine import LintContext

#: Reserved wire-only folder names (mirrors ``repro.core.wellknown``;
#: kept literal so the analyzer never imports the analyzed tree).
RESERVED_WIRE_FOLDERS = ("DELIVERY-SEQ", "LANDING-ID", "TRACE-CONTEXT")

#: ``wellknown`` constant name -> folder string.
_RESERVED_CONSTS = {
    "TRACE_CONTEXT": "TRACE-CONTEXT",
    "DELIVERY_SEQ": "DELIVERY-SEQ",
    "LANDING_ID": "LANDING-ID",
}

#: Briefcase methods that add folder content.
_FOLDER_WRITE_METHODS = frozenset({"put", "append"})

#: Briefcase/folder mutators (feeds the ``mutates-briefcase`` summary).
_BRIEFCASE_MUTATORS = frozenset({
    "put", "append", "drop", "drop_all_except", "merge",
})

#: Names the retry machinery uses to classify errors; a handler that
#: references either is treated as transient-aware (guarded).
_TRANSIENT_GUARDS = ("is_transient", "transient")


@dataclass(frozen=True)
class CallRef:
    """One call site (or decorator application) inside a function."""

    line: int
    col: int
    #: ``"name"`` (resolved dotted target), ``"method"``
    #: (``<class-dotted>.<attr>`` needing MRO resolution), or
    #: ``"unknown"`` (honest unresolved callee).
    kind: str
    target: str
    #: ``""`` direct | ``"alias"`` | ``"partial"`` | ``"decorator"``.
    via: str = ""
    #: Binding site for laundered references (0 when direct).
    bind_line: int = 0
    #: Positional-argument count (``random.Random()`` seededness).
    nargs: int = 0
    snippet: str = ""


@dataclass(frozen=True)
class ImportRef:
    """An absolute ``import module`` / ``from module import ...``."""

    line: int
    col: int
    module: str
    from_import: bool
    snippet: str = ""


@dataclass(frozen=True)
class RaiseRef:
    """An explicit ``raise`` of a (statically named) exception class."""

    line: int
    exc: str
    snippet: str = ""


@dataclass(frozen=True)
class ReservedWrite:
    """A write into a reserved wire-only briefcase folder."""

    line: int
    col: int
    folder: str
    snippet: str = ""


@dataclass(frozen=True)
class RetryRegion:
    """A retry-shaped handler: ``try`` inside a loop whose ``except``
    does not unconditionally re-raise (so the loop iterates again)."""

    handler_line: int
    handler_col: int
    #: Caught exception classes, dotted ("" for a bare ``except:``).
    caught: Tuple[str, ...]
    #: Handler (or its function) consults ``is_transient``/``.transient``.
    guarded: bool
    #: Handler body re-raises on every path we can see (bare ``raise``
    #: as the last handler statement).
    reraises: bool
    #: Line span of the ``try`` body — the calls retried by this loop.
    body_start: int
    body_end: int
    snippet: str = ""


@dataclass
class FunctionFacts:
    """Everything the dataflow pass needs about one function."""

    qname: str
    name: str
    module: str
    path: str
    line: int
    #: Defining class qname ("" for module-level functions).
    cls: str = ""
    calls: List[CallRef] = field(default_factory=list)
    imports: List[ImportRef] = field(default_factory=list)
    raises: List[RaiseRef] = field(default_factory=list)
    #: (line, col, snippet) of each bare ``os.environ`` access.
    env_attr_sites: List[Tuple[int, int, str]] = \
        field(default_factory=list)
    reserved_writes: List[ReservedWrite] = field(default_factory=list)
    retry_regions: List[RetryRegion] = field(default_factory=list)
    #: Lines with a briefcase/folder mutator method call.
    briefcase_mutations: List[int] = field(default_factory=list)


@dataclass
class ClassFacts:
    """A class definition: bases, the error-taxonomy ``transient``
    marker, and attribute types/callable bindings seen in its body."""

    qname: str
    name: str
    module: str
    line: int
    bases: List[str] = field(default_factory=list)
    #: ``"true"`` / ``"false"`` when the class body sets ``transient``,
    #: ``"none"`` for an explicit ``None``, ``"unset"`` otherwise.
    transient: str = "unset"
    #: ``self.<attr>`` -> dotted class of the assigned constructor call
    #: or annotation (best effort, first binding wins).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> (dotted callable reference, binding line) for
    #: ``self._clock = time.time``-style laundering.
    attr_aliases: Dict[str, Tuple[str, int]] = field(default_factory=dict)


@dataclass
class ModuleFacts:
    """The distillation of one analyzed module."""

    module: str
    path: str
    functions: List[FunctionFacts] = field(default_factory=list)
    classes: List[ClassFacts] = field(default_factory=list)
    #: Import-alias table (local name -> dotted target) — resolves
    #: package re-exports (``repro.obs.Tracer``) project-wide.
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Module-level callable bindings: name -> (dotted target, binding
    #: line, via) for ``_clock = time.time`` ("alias") and
    #: ``draw = functools.partial(...)`` ("partial") laundering.
    module_aliases: Dict[str, Tuple[str, int, str]] = \
        field(default_factory=dict)
    #: Effective inline suppressions, line -> sorted rule ids (already
    #: span-normalized over decorated-def headers by the engine).
    suppressions: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    file_suppressed: Tuple[str, ...] = ()

    def suppressed(self, line: int, rule: str) -> bool:
        if rule in self.file_suppressed:
            return True
        return rule in self.suppressions.get(line, ())


class _FunctionCollector:
    """Mutable per-scope state while walking one function body."""

    def __init__(self, facts: FunctionFacts,
                 self_class: Optional[ClassFacts] = None) -> None:
        self.facts = facts
        #: The class ``self`` is bound to: the defining class in a
        #: method, inherited by defs nested in it; None elsewhere.
        self.self_class = self_class
        #: local name -> (dotted callable target, binding line, via).
        self.aliases: Dict[str, Tuple[str, int, str]] = {}
        #: local name -> dotted class (annotation or constructor call).
        self.types: Dict[str, str] = {}
        #: name -> qname of each def nested in this function, from its
        #: ``def`` statement on (statements are walked in order).
        self.local_defs: Dict[str, str] = {}


def extract_module(ctx: LintContext) -> ModuleFacts:
    """Distill one :class:`LintContext` into :class:`ModuleFacts`."""
    extractor = _Extractor(ctx)
    return extractor.run()


class _Extractor:
    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx
        self.module = ctx.module
        self.facts = ModuleFacts(module=ctx.module, path=ctx.path)
        #: Names defined at module top level (defs, classes) — calls to
        #: them resolve to ``<module>.<name>`` even though the alias
        #: table refuses shadowed names.
        self.toplevel: Dict[str, str] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.toplevel[stmt.name] = f"{self.module}.{stmt.name}"

    def run(self) -> ModuleFacts:
        self.facts.aliases = dict(self.ctx.aliases)
        self.facts.file_suppressed = tuple(
            sorted(self.ctx.file_suppressed_rules()))
        self.facts.suppressions = self._collect_suppressions()
        module_fn = self._new_function(f"{self.module}.<module>",
                                       "<module>", line=1, cls="")
        scope = _FunctionCollector(module_fn)
        self._visit_block(self.ctx.tree.body, scope, class_ctx=None)
        self.facts.functions.append(module_fn)
        # Deterministic order: definition line, then qname.
        self.facts.functions.sort(key=lambda f: (f.line, f.qname))
        self.facts.classes.sort(key=lambda c: (c.line, c.qname))
        return self.facts

    def _collect_suppressions(self) -> Dict[int, Tuple[str, ...]]:
        table: Dict[int, Tuple[str, ...]] = {}
        for lineno in range(1, len(self.ctx.lines) + 1):
            rules = self.ctx.suppressed_rules(lineno)
            if rules:
                table[lineno] = tuple(sorted(rules))
        return table

    def _new_function(self, qname: str, name: str, line: int,
                      cls: str) -> FunctionFacts:
        return FunctionFacts(qname=qname, name=name, module=self.module,
                             path=self.ctx.path, line=line, cls=cls)

    # -- scope walking ------------------------------------------------------

    def _visit_block(self, stmts: Sequence[ast.stmt],
                     scope: _FunctionCollector,
                     class_ctx: Optional[ClassFacts]) -> None:
        for stmt in stmts:
            self._visit_stmt(stmt, scope, class_ctx)

    def _visit_stmt(self, stmt: ast.stmt, scope: _FunctionCollector,
                    class_ctx: Optional[ClassFacts]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_function_def(stmt, scope, class_ctx)
            return
        if isinstance(stmt, ast.ClassDef):
            self._visit_class_def(stmt, scope, class_ctx)
            return
        if isinstance(stmt, ast.Try):
            self._record_retry_regions(stmt, scope)
        if isinstance(stmt, ast.Raise):
            self._record_raise(stmt, scope)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._record_binding(stmt, scope)
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._record_import(stmt, scope)
        # Expressions inside this statement (but not nested defs).
        self._record_expressions(self._walk_expressions(stmt), scope)
        # Recurse into child statement blocks within the same scope.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._visit_stmt(child, scope, class_ctx)
            elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                self._visit_block(child.body, scope, class_ctx)
            elif isinstance(child, ast.withitem):
                continue

    def _record_expressions(self, nodes: Sequence[ast.expr],
                            scope: _FunctionCollector) -> None:
        for node in nodes:
            if isinstance(node, ast.Call):
                self._record_call(node, scope)
            elif isinstance(node, ast.Attribute) and \
                    node.attr == "environ" and \
                    self.ctx.qualified_name(node) == "os.environ":
                scope.facts.env_attr_sites.append(
                    (node.lineno, node.col_offset + 1,
                     self.ctx.line_text(node.lineno)))

    def _record_header(self, exprs: Sequence[ast.expr],
                       scope: _FunctionCollector) -> None:
        """Record the header expressions of a def or class, which run
        in the defining ``scope``."""
        for expr in exprs:
            self._record_expressions(
                [expr] + self._walk_expressions(expr), scope)

    @staticmethod
    def _walk_expressions(root: ast.AST) -> List[ast.expr]:
        """Expression nodes below ``root`` that belong to its scope —
        stops at nested statements and nested function/class
        definitions; a lambda's body counts as the enclosing scope's."""
        found: List[ast.expr] = []
        stack: List[ast.AST] = [root]
        while stack:
            node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.stmt, ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if isinstance(child, ast.expr):
                    found.append(child)
                stack.append(child)
        found.sort(key=lambda n: (n.lineno, n.col_offset))
        return found

    def _visit_function_def(self, node: ast.FunctionDef,
                            parent_scope: _FunctionCollector,
                            class_ctx: Optional[ClassFacts]) -> None:
        if class_ctx is not None:
            qname = f"{class_ctx.qname}.{node.name}"
            cls = class_ctx.qname
        else:
            parent = parent_scope.facts.qname
            if parent.endswith(".<module>"):
                qname = f"{self.module}.{node.name}"
            else:
                qname = f"{parent}.{node.name}"
                parent_scope.local_defs[node.name] = qname
            cls = ""
        # Decorators and parameter defaults run in the defining scope.
        header: List[ast.expr] = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for decorator in node.decorator_list:
            call_node = decorator
            if isinstance(decorator, ast.Call):
                call_node = decorator.func
                header.extend(decorator.args)
                header.extend(k.value for k in decorator.keywords)
            target = self.ctx.qualified_name(call_node)
            if target is None and isinstance(call_node, ast.Name) and \
                    call_node.id in self.toplevel:
                target = self.toplevel[call_node.id]
            if target is not None:
                parent_scope.facts.calls.append(CallRef(
                    line=decorator.lineno, col=decorator.col_offset + 1,
                    kind="name", target=target, via="decorator",
                    snippet=self.ctx.line_text(decorator.lineno)))
        self._record_header(header, parent_scope)
        facts = self._new_function(qname, node.name, node.lineno, cls)
        scope = _FunctionCollector(
            facts, class_ctx if class_ctx is not None
            else parent_scope.self_class)
        self._seed_parameter_types(node, scope)
        self._visit_block(node.body, scope, class_ctx=None)
        self.facts.functions.append(facts)

    def _seed_parameter_types(self, node: ast.FunctionDef,
                              scope: _FunctionCollector) -> None:
        args = list(node.args.posonlyargs) + list(node.args.args) + \
            list(node.args.kwonlyargs)
        for arg in args:
            if arg.annotation is None:
                continue
            dotted = self._annotation_type(arg.annotation)
            if dotted is not None:
                scope.types[arg.arg] = dotted

    def _annotation_type(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            return self._annotation_type(parsed)
        if isinstance(node, ast.Subscript):
            value = self.ctx.qualified_name(node.value)
            if value in ("Optional", "typing.Optional"):
                return self._annotation_type(node.slice)
            return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = self.ctx.qualified_name(node)
            if dotted is None and isinstance(node, ast.Name) and \
                    node.id in self.toplevel:
                return self.toplevel[node.id]
            return dotted
        return None

    def _visit_class_def(self, node: ast.ClassDef,
                         parent_scope: _FunctionCollector,
                         class_ctx: Optional[ClassFacts]) -> None:
        if class_ctx is not None:
            qname = f"{class_ctx.qname}.{node.name}"
        else:
            parent = parent_scope.facts.qname
            if parent.endswith(".<module>"):
                qname = f"{self.module}.{node.name}"
            else:
                qname = f"{parent}.{node.name}"
        klass = ClassFacts(qname=qname, name=node.name, module=self.module,
                           line=node.lineno)
        for base in node.bases:
            dotted = self.ctx.qualified_name(base)
            if dotted is None and isinstance(base, ast.Name) and \
                    base.id in self.toplevel:
                dotted = self.toplevel[base.id]
            if dotted is not None:
                klass.bases.append(dotted)
        self._record_header(
            [*node.decorator_list, *node.bases,
             *(k.value for k in node.keywords)], parent_scope)
        self._prescan_class_body(node, klass)
        self.facts.classes.append(klass)
        # Class-body statements execute in the enclosing scope; methods
        # become their own functions under the class qname.
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self._visit_stmt(stmt, parent_scope, klass)
            else:
                self._visit_stmt(stmt, parent_scope, class_ctx)

    def _prescan_class_body(self, node: ast.ClassDef,
                            klass: ClassFacts) -> None:
        """Collect ``transient`` taxonomy markers, annotated attribute
        types, and ``self.<attr> = <callable-ref>`` bindings from every
        method before bodies are walked (method order must not matter)."""
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                if name == "transient" and \
                        isinstance(stmt.value, ast.Constant):
                    value = stmt.value.value
                    if value is True:
                        klass.transient = "true"
                    elif value is False:
                        klass.transient = "false"
                    elif value is None:
                        klass.transient = "none"
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                dotted = self._annotation_type(stmt.annotation)
                if dotted is not None:
                    klass.attr_types.setdefault(stmt.target.id, dotted)
        for body_node in ast.walk(node):
            target = self._self_attr_target(body_node)
            if target is None:
                continue
            attr, value, lineno = target
            if isinstance(value, ast.Call):
                dotted = self._callable_ref(value.func)
                if dotted is not None:
                    klass.attr_types.setdefault(attr, dotted)
            elif isinstance(value, (ast.Name, ast.Attribute)):
                dotted = self._callable_ref(value)
                if dotted is not None:
                    klass.attr_aliases.setdefault(attr, (dotted, lineno))

    @staticmethod
    def _self_attr_target(node: ast.AST
                          ) -> Optional[Tuple[str, ast.expr, int]]:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            return None
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self":
            return target.attr, value, node.lineno
        return None

    def _callable_ref(self, node: ast.expr) -> Optional[str]:
        """Resolve a Name/Attribute reference to a dotted target,
        falling back to module top-level definitions."""
        if isinstance(node, ast.Name) and node.id in self.toplevel:
            return self.toplevel[node.id]
        if isinstance(node, (ast.Name, ast.Attribute)):
            head: ast.expr = node
            while isinstance(head, ast.Attribute):
                head = head.value
            if isinstance(head, ast.Name) and head.id == "self":
                return None
            return self.ctx.qualified_name(node)
        return None

    # -- reference recording ------------------------------------------------

    def _record_binding(self, stmt: ast.stmt,
                        scope: _FunctionCollector) -> None:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1 or \
                    not isinstance(stmt.targets[0], ast.Name):
                return
            name, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            dotted = self._annotation_type(stmt.annotation)
            if dotted is not None:
                scope.types[name] = dotted
            if stmt.value is None:
                return
            value = stmt.value
        else:
            return
        if isinstance(value, (ast.Name, ast.Attribute)):
            dotted = self._callable_ref(value)
            if dotted is not None:
                scope.aliases[name] = (dotted, stmt.lineno, "alias")
                if scope.facts.name == "<module>":
                    self.facts.module_aliases.setdefault(
                        name, (dotted, stmt.lineno, "alias"))
        elif isinstance(value, ast.Call):
            func_target = self.ctx.qualified_name(value.func)
            if func_target in ("functools.partial", "partial") and \
                    value.args:
                inner = self._callable_ref(value.args[0])
                if inner is not None:
                    scope.aliases[name] = (inner, stmt.lineno, "partial")
                    if scope.facts.name == "<module>":
                        self.facts.module_aliases.setdefault(
                            name, (inner, stmt.lineno, "partial"))
            else:
                ctor = self._callable_ref(value.func)
                if ctor is not None:
                    scope.types.setdefault(name, ctor)

    def _record_import(self, stmt: ast.stmt,
                       scope: _FunctionCollector) -> None:
        snippet = self.ctx.line_text(stmt.lineno)
        col = stmt.col_offset + 1
        if isinstance(stmt, ast.Import):
            for item in stmt.names:
                scope.facts.imports.append(ImportRef(
                    stmt.lineno, col, item.name, False, snippet))
        elif isinstance(stmt, ast.ImportFrom) and stmt.module is not None \
                and stmt.level == 0:
            scope.facts.imports.append(ImportRef(
                stmt.lineno, col, stmt.module, True, snippet))

    def _record_raise(self, stmt: ast.Raise,
                      scope: _FunctionCollector) -> None:
        exc = stmt.exc
        if exc is None:
            return  # bare re-raise: not an origin
        node = exc.func if isinstance(exc, ast.Call) else exc
        dotted = self._callable_ref(node) if \
            isinstance(node, (ast.Name, ast.Attribute)) else None
        scope.facts.raises.append(RaiseRef(
            line=stmt.lineno, exc=dotted or "",
            snippet=self.ctx.line_text(stmt.lineno)))

    def _record_retry_regions(self, stmt: ast.Try,
                              scope: _FunctionCollector) -> None:
        loop = self._enclosing_loop(stmt)
        if loop is None or self._iterates(loop, stmt):
            return
        body_lines = [n.lineno for n in stmt.body]
        body_end = max((getattr(n, "end_lineno", n.lineno) or n.lineno)
                       for n in stmt.body)
        for handler in stmt.handlers:
            caught = self._caught_types(handler)
            guarded = self._references_guard(handler)
            reraises = self._always_reraises(handler)
            scope.facts.retry_regions.append(RetryRegion(
                handler_line=handler.lineno,
                handler_col=handler.col_offset + 1,
                caught=caught, guarded=guarded, reraises=reraises,
                body_start=min(body_lines), body_end=body_end,
                snippet=self.ctx.line_text(handler.lineno)))

    def _enclosing_loop(self, stmt: ast.Try) -> Optional[ast.AST]:
        node: Optional[ast.AST] = self.ctx.parent(stmt)
        while node is not None:
            if isinstance(node, (ast.While, ast.For)):
                return node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                return None
            node = self.ctx.parent(node)
        return None

    @staticmethod
    def _iterates(loop: ast.AST, stmt: ast.Try) -> bool:
        """A ``for`` loop whose ``try`` body reads the loop target
        visits distinct items: iteration, not a retry."""
        if not isinstance(loop, ast.For):
            return False
        targets = {node.id for node in ast.walk(loop.target)
                   if isinstance(node, ast.Name)}
        return any(isinstance(node, ast.Name) and node.id in targets and
                   isinstance(node.ctx, ast.Load)
                   for body_stmt in stmt.body
                   for node in ast.walk(body_stmt))

    def _caught_types(self, handler: ast.ExceptHandler) -> Tuple[str, ...]:
        if handler.type is None:
            return ("",)
        entries = handler.type.elts if \
            isinstance(handler.type, ast.Tuple) else [handler.type]
        caught: List[str] = []
        for entry in entries:
            dotted = self._callable_ref(entry) if \
                isinstance(entry, (ast.Name, ast.Attribute)) else None
            caught.append(dotted or "")
        return tuple(caught)

    @staticmethod
    def _references_guard(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(ast.Module(body=list(handler.body),
                                        type_ignores=[])):
            if isinstance(node, ast.Name) and \
                    node.id in _TRANSIENT_GUARDS:
                return True
            if isinstance(node, ast.Attribute) and \
                    node.attr in _TRANSIENT_GUARDS:
                return True
        return False

    @staticmethod
    def _always_reraises(handler: ast.ExceptHandler) -> bool:
        if not handler.body:
            return False
        last = handler.body[-1]
        return isinstance(last, ast.Raise) and last.exc is None

    def _record_call(self, node: ast.Call,
                     scope: _FunctionCollector) -> None:
        self._record_reserved_write(node, scope)
        self._record_briefcase_mutation(node, scope)
        snippet = self.ctx.line_text(node.lineno)
        line, col = node.lineno, node.col_offset + 1
        nargs = len(node.args)
        func = node.func

        def add(kind: str, target: str, via: str = "",
                bind_line: int = 0) -> None:
            scope.facts.calls.append(CallRef(
                line=line, col=col, kind=kind, target=target, via=via,
                bind_line=bind_line, nargs=nargs, snippet=snippet))

        # Inline functools.partial(f, ...)(...) application.
        if isinstance(func, ast.Call):
            inner_target = self.ctx.qualified_name(func.func)
            if inner_target in ("functools.partial", "partial") and \
                    func.args:
                wrapped = self._callable_ref(func.args[0])
                if wrapped is not None:
                    add("name", wrapped, via="partial",
                        bind_line=func.lineno)
                    return
            add("unknown", "<call-result>")
            return

        if isinstance(func, ast.Name):
            name = func.id
            if name in scope.aliases:
                target, bind_line, via = scope.aliases[name]
                add("name", target, via=via, bind_line=bind_line)
                return
            if name in scope.local_defs:
                add("name", scope.local_defs[name])
                return
            if name in self.facts.module_aliases and \
                    name not in scope.types:
                target, bind_line, via = self.facts.module_aliases[name]
                add("name", target, via=via, bind_line=bind_line)
                return
            if name in self.toplevel:
                add("name", self.toplevel[name])
                return
            dotted = self.ctx.qualified_name(func)
            if dotted is not None:
                add("name", dotted)
            else:
                add("unknown", name)
            return

        if isinstance(func, ast.Attribute):
            self._record_attribute_call(func, scope, add)
            return

        add("unknown", "<dynamic>")

    def _record_attribute_call(
            self, func: ast.Attribute, scope: _FunctionCollector,
            add: Any) -> None:
        receiver = func.value
        method = func.attr
        klass = scope.self_class
        # self.<x>() — an attribute alias, or a method on our class.
        if isinstance(receiver, ast.Name) and receiver.id == "self" and \
                klass is not None:
            alias = klass.attr_aliases.get(method)
            if alias is not None:
                add("name", alias[0], via="alias", bind_line=alias[1])
                return
            add("method", f"{klass.qname}.{method}")
            return
        # self.<attr>.<m>() — method on a typed attribute.
        if isinstance(receiver, ast.Attribute) and \
                isinstance(receiver.value, ast.Name) and \
                receiver.value.id == "self" and klass is not None:
            attr_type = klass.attr_types.get(receiver.attr)
            if attr_type is not None:
                add("method", f"{attr_type}.{method}")
                return
            add("unknown", f"self.{receiver.attr}.{method}")
            return
        # super().<m>() — best effort: the method on the first base.
        if isinstance(receiver, ast.Call) and \
                isinstance(receiver.func, ast.Name) and \
                receiver.func.id == "super" and klass is not None and \
                klass.bases:
            add("method", f"{klass.bases[0]}.{method}")
            return
        # <local>.<m>() — method on an annotated/constructed local.
        if isinstance(receiver, ast.Name):
            local_type = scope.types.get(receiver.id)
            if local_type is not None:
                add("method", f"{local_type}.{method}")
                return
            if receiver.id in self.toplevel:
                add("name", f"{self.toplevel[receiver.id]}.{method}")
                return
        # Module-qualified (or class-qualified) dotted reference.
        dotted = self.ctx.qualified_name(func)
        if dotted is not None:
            head: ast.expr = func
            while isinstance(head, ast.Attribute):
                head = head.value
            if isinstance(head, ast.Name) and (
                    head.id in self.ctx.aliases or
                    head.id not in self.ctx.shadowed):
                add("name", dotted)
                return
        parts: List[str] = [method]
        node: ast.expr = receiver
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        parts.append(node.id if isinstance(node, ast.Name) else "?")
        add("unknown", ".".join(reversed(parts)))

    def _record_reserved_write(self, node: ast.Call,
                               scope: _FunctionCollector) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and
                func.attr in _FOLDER_WRITE_METHODS and node.args):
            return
        folder = self._reserved_folder_name(node.args[0])
        if folder is not None:
            scope.facts.reserved_writes.append(ReservedWrite(
                line=node.lineno, col=node.col_offset + 1, folder=folder,
                snippet=self.ctx.line_text(node.lineno)))

    def _reserved_folder_name(self, arg: ast.expr) -> Optional[str]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value if arg.value in RESERVED_WIRE_FOLDERS else None
        if isinstance(arg, (ast.Name, ast.Attribute)):
            dotted = self.ctx.qualified_name(arg)
            if dotted is None:
                return None
            const = dotted.rsplit(".", 1)[-1]
            return _RESERVED_CONSTS.get(const)
        return None

    def _record_briefcase_mutation(self, node: ast.Call,
                                   scope: _FunctionCollector) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and \
                func.attr in _BRIEFCASE_MUTATORS:
            receiver = func.value
            name = receiver.id if isinstance(receiver, ast.Name) else (
                receiver.attr if isinstance(receiver, ast.Attribute)
                else "")
            if name in ("briefcase", "bc", "folder") or \
                    name.endswith("briefcase"):
                scope.facts.briefcase_mutations.append(node.lineno)
