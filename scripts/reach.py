#!/usr/bin/env python3
"""Reachability census: which product functions a shipped entry point
runs, and, of those none runs, which ones nothing even names.

    PYTHONPATH=src python scripts/reach.py

Runs every shipped entry point in this one process under a call-only
``sys.settrace`` hook (it returns ``None``, so no line event fires):

- every command of the digest table ``tests/golden/digests.txt``, as
  ``scripts/digests.sh`` ran it (``scripts/goldens.sh --check`` holds
  the two equal), so each ``chaos`` / ``partition`` / ``crashtest``
  variant its ``--list`` prints;
- ``crawl`` and ``crawl --strategy mobile --monitor``, ``bench --json``,
  ``experiments --json`` (every experiment);
- ``trace --jsonl --chrome``, ``report --json --html``, ``metrics --out``;
- the three ``--list`` commands, ``chaos --no-recovery`` (whose
  baseline fails the plan's checks: it must exit 1) and
  ``crashtest --journal-dump``;
- ``lint``, ``lint --sanitize`` and ``lint --graph json``;
- ``suite list | validate | run`` on every committed suite file except
  ``examples/paper-sweep.suite.yaml`` (390 seeds of the paper suite's
  cells: slow, and it reaches no function the paper suite does not);
- every ``examples/*.py``.

Every function under ``src/repro`` that none of them ran is labelled:

- **dead** when its name appears nowhere in ``src/repro`` except at a
  ``def`` (a reference is a name or attribute in code, an imported
  name, or an identifier inside a string literal that is not a
  docstring, so name dispatch through ``getattr(obj, "op_" + op)``
  still reads as dead);
- **called, never run** otherwise: something names it, but no shipped
  path reaches that use.  That is a coverage hole, not a deletion
  candidate, and is printed as a report.

Dunder methods are skipped, and so are ``analysis`` (its visitors fire
only on the syntax they match) and ``robot`` (part of it runs as
shipped source under another file name).

``scripts/reach-keep.txt`` lists the dead functions that stay, one a
line, ``path::qualname  kind: why`` (``path`` relative to
``src/repro``; ``#`` starts a comment).  ``kind`` is one of
:data:`KEEP_KINDS`.  Prints a Markdown summary per package on stdout
and the called-never-run list on stderr.  Exits 1 when a dead function
is not kept or a keep entry is stale (its function is gone or now
runs), 2 when the keep file is malformed or an entry point raised or
ended with another exit status than its own (0 for all but one).
"""

from __future__ import annotations

import ast
import contextlib
import gc
import glob
import os
import re
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src", "repro")
KEEP_FILE = os.path.join(HERE, "reach-keep.txt")
#: One ``command<TAB>digest`` line per ``scripts/digests.sh`` command.
DIGEST_TABLE = os.path.join(REPO, "tests", "golden", "digests.txt")

#: Packages the census does not judge (see the module docstring).
SKIPPED_PACKAGES = ("analysis", "robot")

#: Suite files not run: they reach nothing another suite does not.
SKIPPED_SUITES = ("examples/paper-sweep.suite.yaml",)

#: Why a dead function may stay.
KEEP_KINDS = {
    "dispatch": "a paper feature reached by name dispatch",
    "roadmap": "claimed by an open ROADMAP item",
    "safety": "safety code: a guard, a validation or a recovery path",
    "benchmark": "called by benchmarks/e2e",
}

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class Function(NamedTuple):
    path: str        # relative to the census root, with "/"
    qualname: str
    name: str
    first_line: int  # the first decorator's line, as ``co_firstlineno``
    lines: int       # source lines, decorators to the last body line

    @property
    def package(self) -> str:
        head, _, rest = self.path.partition("/")
        return head if rest else "(top)"

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def python_files(root: str) -> Iterable[Tuple[str, str]]:
    """``(relative path, absolute path)`` of every module under root."""
    for directory, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                yield os.path.relpath(path, root).replace(os.sep, "/"), path


def _functions_in(tree: ast.Module, path: str) -> Iterable[Function]:
    def visit(node: ast.AST, prefix: str) -> Iterable[Function]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTION_NODES):
                qualname = prefix + child.name
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                yield Function(path, qualname, child.name, first,
                               (child.end_lineno or first) - first + 1)
                yield from visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)
    return visit(tree, "")


def _references_in(tree: ast.Module) -> Iterable[str]:
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            yield from IDENTIFIER.findall(node.value)


def scan(root: str) -> Tuple[List[Function], Set[str]]:
    """Every function under ``root`` and every name referenced there."""
    functions: List[Function] = []
    names: Set[str] = set()
    for relative, path in python_files(root):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        functions.extend(_functions_in(tree, relative))
        names.update(_references_in(tree))
    return functions, names


def judged(function: Function, skipped: Iterable[str]) -> bool:
    name = function.name
    return not (name.startswith("__") and name.endswith("__")) \
        and function.package not in skipped


def trace_calls(action: Callable[[], None]) -> Set[Tuple[str, int]]:
    """Run ``action()`` under a call-only hook; return ``(file, first
    line)`` of every code object it entered."""
    codes: Dict[int, object] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        codes[id(code)] = code   # holding the code keeps its id unique

    previous = sys.gettrace()
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        action()
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in codes.values()}


class Census(NamedTuple):
    judged: List[Function]
    dead: List[Function]
    called_never_run: List[Function]


def classify(root: str, reached: Set[Tuple[str, int]],
             skipped: Iterable[str] = SKIPPED_PACKAGES) -> Census:
    functions, names = scan(root)
    root = os.path.realpath(root)
    skipped = tuple(skipped)
    dead: List[Function] = []
    never_run: List[Function] = []
    candidates = [f for f in functions if judged(f, skipped)]
    for function in candidates:
        where = (os.path.join(root, *function.path.split("/")),
                 function.first_line)
        if where in reached:
            continue
        (never_run if function.name in names else dead).append(function)
    return Census(candidates, dead, never_run)


class KeepError(ValueError):
    """A malformed line of the keep file."""


def read_keep(path: str) -> Dict[str, str]:
    """``path::qualname`` -> reason, from the keep file at ``path``."""
    keep: Dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, reason = line.partition(" ")
            kind = reason.strip().partition(":")[0]
            if "::" not in key or kind not in KEEP_KINDS or \
                    not reason.strip().partition(":")[2].strip():
                raise KeepError(
                    f"{path}:{number}: expected `path::qualname  kind: "
                    f"why` with kind one of {', '.join(KEEP_KINDS)}, got "
                    f"{line!r}")
            if key in keep:
                raise KeepError(f"{path}:{number}: {key} listed twice")
            keep[key] = reason.strip()
    return keep


def gate(census: Census, keep: Dict[str, str]) -> List[str]:
    """Every reason the census fails: a dead function not kept, or a
    keep entry whose function is gone or now runs."""
    problems = [f"dead, not in the keep file: {function.key}"
                for function in census.dead if function.key not in keep]
    unreached = {f.key for f in census.dead + census.called_never_run}
    known = {f.key for f in census.judged}
    for key in sorted(keep):
        if key not in known:
            problems.append(f"stale keep entry, no such function: {key}")
        elif key not in unreached:
            problems.append(f"stale keep entry, the function now runs: "
                            f"{key}")
    return problems


def summary(census: Census, keep: Dict[str, str]) -> str:
    """The per-package Markdown table."""
    rows: Dict[str, List[int]] = {}
    for function in census.judged:
        rows.setdefault(function.package, [0, 0, 0, 0, 0])[0] += 1
    for function in census.dead:
        row = rows[function.package]
        row[1 if function.key in keep else 2] += 1
        row[4] += function.lines
    for function in census.called_never_run:
        rows[function.package][3] += 1
        rows[function.package][4] += function.lines
    lines = ["| package | functions | dead, kept | dead, not kept | "
             "called, never run | unreached source lines |",
             "|---|---:|---:|---:|---:|---:|"]
    for package in sorted(rows):
        lines.append(f"| {package} | " + " | ".join(
            str(value) for value in rows[package]) + " |")
    totals = [sum(row[i] for row in rows.values()) for i in range(5)]
    lines.append("| **total** | " + " | ".join(
        f"**{value}**" for value in totals) + " |")
    return "\n".join(lines)


# -- the entry points ------------------------------------------------------

def _suites() -> List[str]:
    found = sorted(glob.glob(os.path.join(REPO, "**", "*.suite.yaml"),
                             recursive=True))
    return [path for path in found
            if os.path.relpath(path, REPO).replace(os.sep, "/")
            not in SKIPPED_SUITES]


def digest_commands() -> List[List[str]]:
    """The argv of every command in the digest table, in its order."""
    with open(DIGEST_TABLE, encoding="utf-8") as handle:
        return [line.split("\t")[0].split() for line in handle
                if line.strip()]


class EntryPoint(NamedTuple):
    label: str
    #: Runs the entry point; returns its exit status or raises
    #: ``SystemExit`` with it (``None`` reads as 0).
    action: Callable[[], object]
    #: The status it must end with.
    expected: object = 0


def entry_points(out: str) -> Iterable[EntryPoint]:
    """``(label, action)`` for every shipped entry point; files the
    commands write go under ``out``.  Relative paths in the digest table
    are relative to the repo root."""
    import runpy

    from repro.cli import main

    def command(*argv: str, expected: int = 0) -> EntryPoint:
        return EntryPoint(" ".join(argv), lambda: main(list(argv)),
                          expected)

    def example(path: str) -> EntryPoint:
        def run() -> int:
            runpy.run_path(path, run_name="__main__")
            return 0
        return EntryPoint(os.path.relpath(path, REPO), run)

    def at(name: str) -> str:
        return os.path.join(out, name)

    for argv in digest_commands():
        # digests.sh hashes this export from a temporary file; it runs
        # below with its path and the Chrome export.
        if argv != ["trace", "--jsonl"]:
            yield command(*argv)
    yield command("metrics", "--out", at("metrics.txt"))
    yield command("report", "--json", at("report.json"),
                  "--html", at("report.html"))
    yield command("trace", "--jsonl", at("trace.jsonl"),
                  "--chrome", at("trace.json"))
    for name in ("chaos", "partition", "crashtest"):
        yield command(name, "--list")
    # The baseline without the recovery kit fails the plan's checks.
    yield command("chaos", "--seed", "7", "--no-recovery", expected=1)
    yield command("crashtest", "--seed", "7",
                  "--journal-dump", at("journal.jsonl"))
    yield command("crawl")
    yield command("crawl", "--strategy", "mobile", "--monitor")
    yield command("bench", "--json", at("bench.json"))
    yield command("experiments", "--json", at("experiments.json"))
    yield command("lint")
    yield command("lint", "--sanitize")
    yield command("lint", "--graph", "json")
    yield command("suite", "list")
    for suite in _suites():
        yield command("suite", "list", suite)
        yield command("suite", "validate", suite)
        yield command("suite", "run", suite, "--json", at("suite.json"))
    for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.py"))):
        yield example(path)


def run_entry_points(entries: Callable[[str], Iterable[EntryPoint]]
                     ) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Trace every entry point ``entries(out)`` yields; return what they
    reached and why each that failed did: it raised, or it ended with
    another exit status than the one it declares."""
    reached: Set[Tuple[str, int]] = set()
    failed: List[str] = []
    with tempfile.TemporaryDirectory() as out, \
            open(os.devnull, "w") as sink:
        for label, action, expected in entries(out):
            status: List[object] = []

            def run(action: Callable[[], object] = action,
                    status: List[object] = status) -> None:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    try:
                        status.append(action())
                    except SystemExit as exc:
                        status.append(exc.code)
                    # A generator an entry point left suspended runs its
                    # ``finally`` when collected: collect here, so that
                    # code counts for this entry point on every tree.
                    gc.collect()
            try:
                reached |= trace_calls(run)
            except Exception as exc:   # reported, then exit 2
                failed.append(f"{label}: raised {type(exc).__name__}: {exc}")
                continue
            code = 0 if status[0] is None else status[0]
            if code != expected:
                failed.append(f"{label}: exit status {code!r}, "
                              f"expected {expected!r}")
    return reached, failed


def judge(root: str, keep_path: str, reached: Set[Tuple[str, int]],
          skipped: Iterable[str] = SKIPPED_PACKAGES) -> int:
    """Label every function under ``root`` that ``reached`` misses, print
    the summary and the called-never-run list, and return the exit
    status: 0, 1 when the gate fails, 2 when the keep file is malformed."""
    err = sys.stderr
    try:
        keep = read_keep(keep_path)
    except KeepError as exc:
        print(f"reach: {exc}", file=err)
        return 2
    census = classify(root, reached, skipped)
    problems = gate(census, keep)
    print(summary(census, keep))
    print(f"\n{len(census.dead) + len(census.called_never_run)} unreached "
          f"of {len(census.judged)} judged functions: {len(census.dead)} "
          f"dead ({sum(f.key in keep for f in census.dead)} kept), "
          f"{len(census.called_never_run)} called, never run", file=err)
    if census.called_never_run:
        print("\ncalled, never run (a coverage hole, not gated):", file=err)
        for function in sorted(census.called_never_run):
            print(f"  {function.key}  ({function.lines} lines)", file=err)
    for problem in problems:
        print(f"reach: {problem}", file=err)
    return 1 if problems else 0


def census(entries: Callable[[str], Iterable[EntryPoint]], root: str,
           keep_path: str,
           skipped: Iterable[str] = SKIPPED_PACKAGES) -> int:
    """Run ``entries``, judge ``root`` and return the exit status."""
    start = time.perf_counter()
    reached, failed = run_entry_points(entries)
    status = judge(root, keep_path, reached, skipped)
    print(f"reach: {time.perf_counter() - start:.0f} s", file=sys.stderr)
    for label in failed:
        print(f"reach: entry point failed: {label}", file=sys.stderr)
    return 2 if failed else status


def main() -> int:
    os.chdir(REPO)
    sys.path.insert(0, os.path.join(REPO, "src"))
    return census(entry_points, SRC, KEEP_FILE)


if __name__ == "__main__":
    sys.exit(main())
