"""Result tables and paper claims for the experiments.

A claim is data: its text and one or more checks over the report's
extras in the suite check grammar.  :meth:`ExperimentReport.to_dict`
decides each one and records what every check observed, the verdict
and a margin; :func:`render_report` prints that document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.suites.runner import evaluate_check, parse_check


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A plain fixed-width table (the harness prints these)."""
    columns = [[str(h)] for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            if isinstance(cell, float):
                text = f"{cell:.3f}" if abs(cell) >= 0.01 or cell == 0 \
                    else f"{cell:.6f}"
            elif isinstance(cell, int):
                text = f"{cell:,d}"
            else:
                text = str(cell)
            columns[i].append(text)
    widths = [max(len(cell) for cell in column) for column in columns]
    header_line = "  ".join(h.ljust(w) for h, w in
                            zip([c[0] for c in columns], widths))
    lines = [header_line, "-" * len(header_line)]
    for r in range(1, len(columns[0])):
        lines.append("  ".join(columns[i][r].rjust(widths[i])
                               for i in range(len(columns))))
    return "\n".join(lines)


def check_slack(check: str, value: Any) -> Optional[float]:
    """How far ``value`` clears ``check``, relative to its literal.

    For an ordering comparison against a non-zero number the slack is
    ``(value - literal) / |literal|``, signed so that it is positive when
    the check holds; any other check (truthy, falsy, ``==``, ``!=``, a
    zero literal, a value that is not a number) has none.
    """
    _, op, literal = parse_check(check)
    if op not in (">=", ">", "<=", "<") or not _is_number(value) \
            or not _is_number(literal) or literal == 0:
        return None
    slack = value - literal if op in (">=", ">") else literal - value
    return slack / abs(literal)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PaperClaim:
    """One paper statement and the checks over the report's extras that
    decide it, written in the suite check grammar
    (:func:`repro.suites.runner.evaluate_check`)."""

    experiment: str
    claim: str
    checks: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.checks:
            raise ValueError(f"{self.experiment}: claim {self.claim!r} "
                             f"has no checks")
        for check in self.checks:
            parse_check(check)

    def verdict(self, extras: Dict[str, Any]) -> Dict[str, Any]:
        """The claim's record: each check's observed value, whether all
        hold, and the margin (the smallest slack of its numeric checks,
        ``None`` when it has none)."""
        results = []
        slacks = []
        for check in self.checks:
            ok, value = evaluate_check(check, extras)
            results.append({"check": check, "ok": ok, "value": value})
            slack = check_slack(check, value)
            if slack is not None:
                slacks.append(slack)
        return {
            "claim": self.claim,
            "checks": results,
            "holds": all(result["ok"] for result in results),
            "margin": min(slacks) if slacks else None,
        }


@dataclass
class ExperimentReport:
    """Everything one experiment run produced."""

    experiment_id: str
    description: str
    headers: List[str] = field(default_factory=list)
    rows: List[List] = field(default_factory=list)
    claims: List[PaperClaim] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, *cells) -> None:
        self.rows.append(list(cells))

    def add_claim(self, claim: str, *checks: str) -> None:
        self.claims.append(PaperClaim(self.experiment_id, claim, checks))

    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON document, each claim decided over the
        extras."""
        claims = [claim.verdict(self.extras) for claim in self.claims]
        return {
            "experiment": self.experiment_id,
            "description": self.description,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "claims": claims,
            "extras": dict(self.extras),
            "reproduced": all(claim["holds"] for claim in claims),
        }


def _observed(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else json.dumps(value)


def render_report(document: Dict[str, Any]) -> str:
    """An experiment document (:meth:`ExperimentReport.to_dict`) as
    text: its table, then each claim with its verdict, margin and
    checks."""
    parts = [f"=== {document['experiment']}: {document['description']} ==="]
    if document["rows"]:
        parts.append(render_table(document["headers"], document["rows"]))
    for claim in document["claims"]:
        verdict = "REPRODUCED" if claim["holds"] else "DIVERGED"
        margin = "" if claim["margin"] is None \
            else f", margin {claim['margin']:+.3f}"
        parts.append(f"[{verdict}{margin}] {claim['claim']}")
        for check in claim["checks"]:
            parts.append(f"  {'ok  ' if check['ok'] else 'FAIL'} "
                         f"{check['check']}  "
                         f"(observed {_observed(check['value'])})")
    return "\n".join(parts)
