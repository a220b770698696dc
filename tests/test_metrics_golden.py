"""The OpenMetrics text of the traced quickstart, held to the committed
``tests/golden/metrics.txt``.

``repro metrics`` is a pure function of that scenario, so its stdout is
compared with the committed text line by line: a sample that moved, a
family that appeared or a count that changed is a diff that names its
family, not a changed digest.  ``scripts/goldens.sh --check`` diffs
the same file in CI.
"""

import difflib

from repro.cli import main
from tests.golden import REGENERATE, path


def test_metrics_match_the_committed_text(capsys):
    assert main(["metrics"]) == 0
    produced = capsys.readouterr().out.splitlines()
    with open(path("metrics.txt"), encoding="utf-8") as handle:
        golden = handle.read().splitlines()
    diff = list(difflib.unified_diff(
        golden, produced, "tests/golden/metrics.txt", "repro metrics",
        lineterm="", n=1))
    assert not diff, (f"`repro metrics` differs from the committed text "
                      f"({REGENERATE}):\n" + "\n".join(diff[:60]))
    assert produced[-1] == "# EOF"
