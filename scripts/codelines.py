#!/usr/bin/env python3
"""Count code lines per package: lines that hold a token outside
comments and docstrings.

    python scripts/codelines.py [ROOT]

ROOT defaults to ``src/repro``.  A line counts when any token other
than a comment, a blank line or an indentation change covers it (a
multi-line string or bracket counts every line it spans); a docstring
— the string that opens a module, class or function body — counts
nothing.  Prints a Markdown table, one row per package directly under
ROOT (its modules and subpackages together; modules that sit at ROOT
itself share the row ``(top)``), then the total.  This is the unit
ROADMAP.md states its size bars in.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_ROOT = os.path.join(HERE, "..", "src", "repro")

#: Tokens that never make a line a code line.
LAYOUT = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
})

BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers every docstring in ``source`` spans."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def count_tree(root: str) -> Counter:
    """Code lines per package directly under ``root``."""
    totals: Counter = Counter()
    for directory, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        relative = os.path.relpath(directory, root)
        package = "(top)" if relative == "." else relative.split(os.sep)[0]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                with open(os.path.join(directory, filename),
                          encoding="utf-8") as handle:
                    totals[package] += code_lines(handle.read())
    return totals


def main(argv: list) -> int:
    root = argv[0] if argv else DEFAULT_ROOT
    totals = count_tree(root)
    print("| package | code lines |")
    print("|---|---:|")
    for package, lines in sorted(totals.items(),
                                 key=lambda item: (-item[1], item[0])):
        print(f"| {package} | {lines} |")
    print(f"| **total** | **{sum(totals.values())}** |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
