#!/usr/bin/env python3
"""Tabulate every paper claim's verdicts and margins over a suite run.

    python -m repro suite run examples/paper-sweep.suite.yaml --json sweep.json > /dev/null
    python scripts/margins.py sweep.json

Reads a suite document that keeps its cell documents (a run without
``--digests-only``), groups the claims of its ``experiment`` cells by
experiment and claim, and prints a Markdown table: in how many cells
the claim held, and the min / median / max of its margin (``-`` for a
claim none of whose checks carries one).  Below the table it names every
cell a claim failed in, and every cell that raised.  A claim's margin
is the smallest slack of its numeric checks: ``(observed - literal) /
|literal|``, signed so that it is positive when the check holds.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple


def tabulate(document: dict) -> List[str]:
    held: Dict[Tuple[str, int], int] = defaultdict(int)
    seen: Dict[Tuple[str, int], int] = defaultdict(int)
    margins: Dict[Tuple[str, int], List[float]] = defaultdict(list)
    texts: Dict[Tuple[str, int], str] = {}
    notes: List[str] = []
    for cell in document["cells"]:
        report = cell.get("document")
        if report is None:
            notes.append(f"- {cell['id']}: {cell['status']} "
                         f"{cell.get('error', '')}")
            continue
        for number, claim in enumerate(report["claims"], 1):
            key = (report["experiment"], number)
            texts[key] = claim["claim"]
            seen[key] += 1
            held[key] += claim["holds"]
            if claim["margin"] is not None:
                margins[key].append(claim["margin"])
            if not claim["holds"]:
                failed = [check["check"] for check in claim["checks"]
                          if not check["ok"]]
                notes.append(f"- {cell['id']}: {report['experiment']} "
                             f"claim {number} fails {', '.join(failed)}")
    lines = ["| claim | held | min | median | max | paper text |",
             "|---|---:|---:|---:|---:|---|"]
    for key in sorted(seen):
        values = margins[key]
        spread = [f"{value:+.3f}" for value in (
            min(values), statistics.median(values), max(values))] \
            if values else ["-"] * 3
        text = texts[key] if len(texts[key]) <= 60 \
            else texts[key][:57] + "..."
        lines.append(f"| {key[0]}.{key[1]} | {held[key]}/{seen[key]} | "
                     f"{' | '.join(spread)} | {text} |")
    return lines + ([""] + notes if notes else [])


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        print("\n".join(tabulate(json.load(handle))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
