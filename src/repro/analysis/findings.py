"""Findings: what the static analyzer and the runtime sanitizer report.

A :class:`Finding` is one diagnosed hazard, static (a source location
plus a rule id) or dynamic (a runtime scenario plus a rule id).  Both
producers feed the same rendering pipeline, so ``repro lint`` emits one
deterministic document whether it ran rules over the AST, scenarios
under the sanitizer, or both.

Determinism contract: every renderer in this module is a pure function
of its finding list.  Findings are totally ordered by
``(path, line, col, rule, message)``, JSON is rendered with sorted keys
and a trailing newline, and fingerprints hash only stable inputs (never
absolute paths, ids, or timestamps) — so two runs over the same tree
produce byte-identical output, which CI diffs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Iterable, List, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Ordering used everywhere a finding list is rendered or compared.
_SORT_KEY = ("path", "line", "col", "rule", "message")


@dataclass(frozen=True)
class WitnessStep:
    """One hop of an interprocedural finding's witness call chain."""

    function: str
    path: str
    line: int
    note: str


@dataclass(frozen=True)
class Finding:
    """One diagnosed hazard."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line (static) or a stable scenario label
    #: (dynamic); feeds the fingerprint, so it survives pure line drift.
    snippet: str = ""
    #: Stable identity (SARIF's ``partialFingerprints``); assigned by
    #: :func:`fingerprinted`.
    fingerprint: str = ""
    #: Interprocedural findings carry the call chain from the reported
    #: function down to the effect's origin.  Deliberately excluded
    #: from both the fingerprint and the sort key: a finding keeps its
    #: identity across unrelated callee edits that only reshape the path.
    witness: Tuple[WitnessStep, ...] = ()

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(findings, key=Finding.sort_key)


def fingerprinted(findings: Iterable[Finding]) -> List[Finding]:
    """Sorted findings with stable fingerprints assigned.

    The fingerprint hashes ``(path, rule, snippet, occurrence-index)``:
    line numbers are deliberately excluded so a fingerprint survives
    unrelated edits above it, while the occurrence index keeps repeated
    identical lines in one file distinct.
    """
    ordered = sort_findings(findings)
    seen: Dict[Tuple[str, str, str], int] = {}
    result: List[Finding] = []
    for finding in ordered:
        key = (finding.path, finding.rule, finding.snippet)
        index = seen.get(key, 0)
        seen[key] = index + 1
        digest = hashlib.sha256(
            f"{finding.path}::{finding.rule}::{finding.snippet}::{index}"
            .encode("utf-8")).hexdigest()[:16]
        result.append(replace(finding, fingerprint=digest))
    return result


@dataclass
class Report:
    """A finding list plus the run's bookkeeping."""

    findings: List[Finding] = field(default_factory=list)
    #: Paths (or scenario labels) that were analyzed.
    analyzed: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> Dict[str, Any]:
        by_rule: Dict[str, int] = {}
        for finding in self.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        return {
            "version": 1,
            "tool": "repro-lint",
            "analyzed": sorted(self.analyzed),
            "findings": [asdict(f) for f in sort_findings(self.findings)],
            "summary": {
                "total": len(self.findings),
                "by_rule": by_rule,
            },
        }


def render_json(report: Report) -> str:
    """The canonical machine-readable document (byte-reproducible)."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def render_text(report: Report) -> str:
    """Human-oriented one-line-per-finding text (witness chains are
    indented under their finding)."""
    lines = []
    for finding in sort_findings(report.findings):
        lines.append(f"{finding.location()}: {finding.rule} "
                     f"{finding.severity}: {finding.message}")
        for step in finding.witness:
            lines.append(f"    via {step.function} "
                         f"({step.path}:{step.line}): {step.note}")
    lines.append(f"{len(report.findings)} finding(s)")
    return "\n".join(lines) + "\n"


def render_sarif(report: Report,
                 rule_index: Dict[str, Tuple[str, str]]) -> str:
    """A minimal SARIF 2.1.0 document (CI code-scanning artifact).

    ``rule_index`` maps rule id -> (severity, description) for the
    driver's rule table; rules seen only in findings fall back to their
    finding's severity.
    """
    levels = {SEVERITY_ERROR: "error", SEVERITY_WARNING: "warning"}
    rules = []
    for rule_id in sorted(rule_index):
        severity, description = rule_index[rule_id]
        rules.append({
            "id": rule_id,
            "shortDescription": {"text": description},
            "defaultConfiguration": {
                "level": levels.get(severity, "warning")},
        })
    results = []
    for finding in sort_findings(report.findings):
        result: Dict[str, Any] = {
            "ruleId": finding.rule,
            "level": levels.get(finding.severity, "warning"),
            "message": {"text": finding.message},
            "partialFingerprints": {"reproLint/v1": finding.fingerprint},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": max(1, finding.line),
                               "startColumn": max(1, finding.col)},
                },
            }],
        }
        if finding.witness:
            result["relatedLocations"] = [{
                "message": {"text": f"{step.function}: {step.note}"},
                "physicalLocation": {
                    "artifactLocation": {"uri": step.path},
                    "region": {"startLine": max(1, step.line)},
                },
            } for step in finding.witness]
        results.append(result)
    document = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "informationUri": "https://example.invalid/repro",
                "version": "1.0.0",
                "rules": rules,
            }},
            "results": results,
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
