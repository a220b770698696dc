"""The deterministic matrix executor behind ``repro suite run``.

Executes a :class:`~repro.suites.schema.SuiteSpec` cell by cell, in the
fixed expansion order, and produces **one canonical suite document**:
for every cell an envelope with its id, resolved parameters, derived
seed, check verdicts, a sha256 digest of the raw scenario document, and
(optionally) the document itself.  Because every plugin is a pure
function of ``(seed, params)`` and per-cell seeds derive from the cell
*identity* rather than its position, re-running a suite — or running
one of its cells standalone — reproduces the same bytes.

Check expressions (the cell verdict language)::

    exactly_once.holds          # truthy value at the dotted path
    !agent.timed_out            # falsy value at the dotted path
    flood.completion_rate>=0.9  # comparison; ==, !=, >=, <=, >, <
                                # the right side is a JSON literal

A missing path fails the check (and reports the value as ``null``).

A cell whose plugin raises is reported, not propagated: its envelope
has ``status: "error"`` and the exception's type and message, it counts
as failed, and the cells after it still run.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.rng import derive_seed
from repro.suites.registry import SuiteError, get_plugin
from repro.suites.schema import CellSpec, SuiteSpec

SUITE_SCHEMA = "repro.suite/1"

_COMPARATORS = ("==", "!=", ">=", "<=", ">", "<")
_PATH_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z0-9_]+)*$")


class CheckSyntaxError(SuiteError):
    """A check expression failed to parse."""


def parse_check(expression: str) -> Tuple[str, Optional[str], Any]:
    """Parse a check into ``(path, op, literal)``.

    ``op`` is ``None`` for a bare truthy check, ``"!"`` for a negated
    one, or one of the comparison operators with a JSON ``literal``.
    """
    text = expression.strip()
    if not text:
        raise CheckSyntaxError("empty check expression")
    for op in _COMPARATORS:
        if op in text:
            path, _, literal = text.partition(op)
            path = path.strip()
            literal = literal.strip()
            if not _PATH_RE.match(path):
                raise CheckSyntaxError(
                    f"bad path {path!r} in check {expression!r}")
            try:
                value = json.loads(literal)
            except json.JSONDecodeError:
                raise CheckSyntaxError(
                    f"right side of {expression!r} must be a JSON "
                    f"literal, got {literal!r}") from None
            return path, op, value
    negate = text.startswith("!")
    path = text[1:].strip() if negate else text
    if not _PATH_RE.match(path):
        raise CheckSyntaxError(f"bad path {path!r} in check "
                               f"{expression!r}")
    return path, ("!" if negate else None), None


def _lookup(document: Dict[str, Any], path: str) -> Tuple[bool, Any]:
    node: object = document
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


def evaluate_check(expression: str,
                   document: Dict[str, Any]) -> Tuple[bool, Any]:
    """Evaluate one check; returns ``(ok, observed_value)``."""
    path, op, literal = parse_check(expression)
    found, value = _lookup(document, path)
    if not found:
        return False, None
    if op is None:
        return bool(value), value
    if op == "!":
        return not value, value
    try:
        if op == "==":
            return value == literal, value
        if op == "!=":
            return value != literal, value
        if op == ">=":
            return value >= literal, value
        if op == "<=":
            return value <= literal, value
        if op == ">":
            return value > literal, value
        return value < literal, value
    except TypeError:
        return False, value


def document_digest(document: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON serialisation of ``document``."""
    canonical = json.dumps(document, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cell_seed(suite_seed: int, cell: CellSpec) -> int:
    """The cell's seed: explicit when pinned, else derived from the
    suite seed and the cell *identity* (not its matrix position)."""
    if cell.explicit_seed is not None:
        return cell.explicit_seed
    return derive_seed(suite_seed, f"cell/{cell.cell_id}")


def _envelope(cell: CellSpec, index: int, seed: Optional[int],
              status: str, checks: Optional[List[Dict[str, Any]]] = None,
              digest: Optional[str] = None) -> Dict[str, Any]:
    """The shared cell envelope; a cell that produced no document
    (skipped, or its plugin raised) has no checks and no digest."""
    return {
        "id": cell.cell_id,
        "index": index,
        "plugin": cell.plugin,
        "params": cell.params_dict(),
        "seed": seed,
        "status": status,
        "checks": checks or [],
        "digest": digest,
    }


def run_cell(cell: CellSpec, suite_seed: int, index: int = 0,
             include_document: bool = True) -> Dict[str, Any]:
    """Run one cell and wrap the result in the shared envelope."""
    plugin = get_plugin(cell.plugin)
    seed = cell_seed(suite_seed, cell)
    try:
        document = plugin.run_cell(seed, cell.params_dict())
    except Exception as exc:  # one bad cell must not cost the suite
        envelope = _envelope(cell, index, seed, "error")
        envelope["error"] = {"type": type(exc).__name__,
                             "message": str(exc)}
        return envelope
    results = []
    failed = 0
    for check in cell.checks:
        ok, value = evaluate_check(check, document)
        if not ok:
            failed += 1
        results.append({"check": check, "ok": ok, "value": value})
    envelope = _envelope(cell, index, seed,
                         "failed" if failed else "passed", results,
                         document_digest(document))
    if include_document:
        envelope["document"] = document
    return envelope


def run_suite(spec: SuiteSpec, seed: Optional[int] = None,
              include_documents: bool = True) -> Dict[str, Any]:
    """Execute every cell in order; produce the canonical suite document.

    ``seed`` overrides the suite file's default seed.  Under the
    ``first-failure`` early-stop policy, cells after the first failed
    (or errored) one are recorded as ``skipped`` and never executed.
    """
    suite_seed = spec.seed if seed is None else seed
    cells: List[Dict[str, Any]] = []
    passed = failed = skipped = 0
    stop = False
    for index, cell in enumerate(spec.cells):
        if stop:
            cells.append(_envelope(cell, index, None, "skipped"))
            skipped += 1
            continue
        envelope = run_cell(cell, suite_seed, index,
                            include_document=include_documents)
        cells.append(envelope)
        if envelope["status"] != "passed":
            failed += 1
            if spec.early_stop == "first-failure":
                stop = True
        else:
            passed += 1
    return {
        "schema": SUITE_SCHEMA,
        "suite": spec.name,
        "description": spec.description,
        "seed": suite_seed,
        "early_stop": spec.early_stop,
        "cells": cells,
        "summary": {
            "planned": len(spec.cells),
            "executed": passed + failed,
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
            "ok": failed == 0,
        },
    }


def render_suite_json(document: Dict[str, Any]) -> str:
    """Canonical serialisation of a suite document (CI diffs this)."""
    return json.dumps(document, sort_keys=True, indent=2)


def suite_ok(document: Dict[str, Any]) -> bool:
    return bool(document["summary"]["ok"])
