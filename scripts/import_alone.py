#!/usr/bin/env python3
"""Import every ``repro`` module first and alone, each in a fresh
interpreter.

    PYTHONPATH=src python scripts/import_alone.py

A package that imports its submodules eagerly can hide an import cycle
behind its own import order; a lazy namespace (``repro/_namespace.py``)
cannot, so every module must import on its own.  Prints one line per
failing module with the ``ImportError`` (or other exception) it raised,
and exits 1 if there is any.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))


def module_names() -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.relpath(os.path.join(dirpath, filename), SRC)
                name = path[:-3].replace(os.sep, ".")
                yield name[:-len(".__init__")] \
                    if name.endswith(".__init__") else name


def main() -> int:
    env = dict(os.environ, PYTHONPATH=SRC)
    failed = 0
    names = list(module_names())
    for name in names:
        result = subprocess.run(
            [sys.executable, "-c", f"import {name}"], env=env,
            capture_output=True, text=True, timeout=120)
        if result.returncode:
            failed += 1
            lines = result.stderr.strip().splitlines() or ["(no output)"]
            print(f"{name}: {lines[-1]}")
    print(f"{len(names) - failed}/{len(names)} modules import alone",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
