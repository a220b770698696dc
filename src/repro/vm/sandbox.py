"""Sandboxed execution environments for shipped code.

Each TAX virtual machine is responsible for executing agent code *safely*
(paper section 3.3) using whatever mechanism suits its language — the
paper names sand-boxing, PCC, SFI and code signing.  ``vm_python`` and
``vm_source`` use this module's sandbox: shipped code is executed in a
namespace with

- a **whitelisted builtins** table (no ``open``, ``eval``, ``exec``,
  ``input``, ``__import__`` escape hatches), and
- an **import whitelist** limited to side-effect-free stdlib modules.

``vm_bin`` deliberately bypasses the sandbox for *trusted, signed* code —
the paper's point that "if sufficient trust can be achieved, an agent
should have all the capabilities of a regular process" — which in this
simulation means executing with this process's real builtins.

An optional cooperative **step budget** (`run_limited`) bounds the number
of traced lines a callable may execute; tests use it for runaway-agent
containment.
"""

from __future__ import annotations

import builtins as _builtins
import functools
import sys
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, Optional, Set

from repro.core.errors import SandboxViolation

#: Modules shipped agent code may import: pure-computation stdlib only.
DEFAULT_ALLOWED_IMPORTS = frozenset({
    "re", "json", "math", "html", "string", "textwrap", "collections",
    "itertools", "functools", "dataclasses", "typing", "heapq", "bisect",
    "copy", "enum", "abc", "statistics", "operator",
})

_SAFE_BUILTIN_NAMES = (
    "abs", "all", "any", "ascii", "bin", "bool", "bytearray", "bytes",
    "callable", "chr", "classmethod", "complex", "dict", "dir", "divmod",
    "enumerate", "filter", "float", "format", "frozenset", "getattr",
    "hasattr", "hash", "hex", "id", "int", "isinstance", "issubclass",
    "iter", "len", "list", "map", "max", "min", "next", "object", "oct",
    "ord", "pow", "print", "property", "range", "repr", "reversed",
    "round", "set", "setattr", "slice", "sorted", "staticmethod", "str",
    "sum", "super", "tuple", "type", "vars", "zip",
    # Exceptions agent code legitimately raises/catches.
    "ArithmeticError", "AssertionError", "AttributeError", "BaseException",
    "Exception", "GeneratorExit", "IndexError", "KeyError", "KeyboardInterrupt",
    "LookupError", "NotImplementedError", "OverflowError", "RuntimeError",
    "StopIteration", "TypeError", "ValueError", "ZeroDivisionError",
    "NotImplemented",
)


def _denied(name: str) -> Callable:
    def guard(*_args: Any, **_kwargs: Any) -> None:
        raise SandboxViolation(f"builtin {name!r} is not available "
                               "to sandboxed agent code")
    guard.__name__ = f"denied_{name}"
    return guard


def _restricted_import(allowed: Set[str], name: str, globals=None,
                       locals=None, fromlist=(), level: int = 0):
    if level != 0:
        raise SandboxViolation("relative imports are not allowed "
                               "in shipped code")
    root = name.split(".", 1)[0]
    if root not in allowed:
        raise SandboxViolation(
            f"import of {name!r} denied (whitelist: {sorted(allowed)})")
    # The real ``__import__``: ``import a.b`` binds the package ``a``,
    # ``from a import b`` gets ``a`` with its submodule ``b`` loaded.
    return _builtins.__import__(name, globals, locals, fromlist, level)


class Sandbox:
    """A reusable factory for restricted global namespaces."""

    def __init__(self,
                 allowed_imports: Iterable[str] = DEFAULT_ALLOWED_IMPORTS,
                 extra_globals: Optional[Dict[str, Any]] = None):
        self.allowed_imports: Set[str] = set(allowed_imports)
        self.extra_globals = dict(extra_globals or {})

    # -- namespace construction ---------------------------------------------------

    def make_builtins(self) -> Dict[str, Any]:
        table: Dict[str, Any] = {}
        for name in _SAFE_BUILTIN_NAMES:
            table[name] = getattr(_builtins, name)
        # Class definition support.
        table["__build_class__"] = _builtins.__build_class__
        # Bound to the whitelist, not to the sandbox: a loaded module's
        # functions and namespace hold each other, and that cycle must
        # not keep a closed world's VM sandbox alive.
        table["__import__"] = functools.partial(_restricted_import,
                                                self.allowed_imports)
        for name in ("open", "eval", "exec", "input", "compile",
                     "globals", "locals", "breakpoint", "memoryview",
                     "exit", "quit"):
            table[name] = _denied(name)
        return table

    def make_globals(self, module_name: str = "tax_agent") -> Dict[str, Any]:
        namespace: Dict[str, Any] = {
            "__builtins__": self.make_builtins(),
            "__name__": module_name,
            "__doc__": None,
        }
        namespace.update(self.extra_globals)
        return namespace


class TrustedSandbox(Sandbox):
    """A non-restricting "sandbox" for code whose signer is trusted.

    Implements the paper's position that *"if sufficient trust can be
    achieved, an agent should have all the capabilities of a regular
    process"*: vm_bin runs verified binaries with the real builtins and
    unrestricted imports.
    """

    def make_builtins(self) -> Dict[str, Any]:
        # Every namespace gets its own copy of the one table, so an agent
        # that rebinds a builtin changes only its own namespace.
        return _trusted_builtins().copy()


@functools.lru_cache(maxsize=1)
def _trusted_builtins() -> MappingProxyType[str, Any]:
    """The real builtins as a trusted namespace sees them: built on first
    use (not at import), then shared read-only."""
    return MappingProxyType({
        name: getattr(_builtins, name) for name in dir(_builtins)
        if not name.startswith("_")} | {
            "__build_class__": _builtins.__build_class__,
            "__import__": _builtins.__import__,
        })


def run_limited(func: Callable, args: tuple = (), kwargs: Optional[dict] = None,
                max_lines: int = 1_000_000) -> Any:
    """Run ``func`` under a traced line budget.

    Raises :class:`SandboxViolation` when the budget is exhausted.  This
    is a cooperative guard (it costs tracing overhead), used where a VM
    wants runaway protection for untrusted synchronous code.
    """
    kwargs = kwargs or {}
    executed = 0

    def tracer(frame, event, arg):
        nonlocal executed
        if event == "line":
            executed += 1
            if executed > max_lines:
                raise SandboxViolation(
                    f"step budget of {max_lines} lines exhausted")
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        return func(*args, **kwargs)
    finally:
        sys.settrace(old)
