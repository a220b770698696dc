"""The OpenMetrics text of the traced quickstart, held to the committed
``tests/golden/metrics.txt``.

``repro metrics`` is a pure function of that scenario, so its stdout is
compared with the committed text line by line: a sample that moved, a
family that appeared or a count that changed is a diff that names its
family, not a changed digest.  CI diffs the same file after its
twice-run determinism gate.
"""

import difflib
import os

from repro.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "metrics.txt")
REGENERATE = ("if the change is intended, regenerate with "
              "`PYTHONPATH=src python -m repro metrics > "
              "tests/golden/metrics.txt` and review the diff")


def test_metrics_match_the_committed_text(capsys):
    assert main(["metrics"]) == 0
    produced = capsys.readouterr().out.splitlines()
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = handle.read().splitlines()
    diff = list(difflib.unified_diff(
        golden, produced, "tests/golden/metrics.txt", "repro metrics",
        lineterm="", n=1))
    assert not diff, (f"`repro metrics` differs from the committed text "
                      f"({REGENERATE}):\n" + "\n".join(diff[:60]))
    assert produced[-1] == "# EOF"
