"""Every row of every experiment, held to the committed ``results.json``.

The virtual-time results (E1-E5, A1, D1, F3, F5, G1, M1, R1-R3) are pure
functions of the seed, so the document ``repro experiments --json``
writes is compared with the committed one value for value — floats
exact, which is what catches a float accumulated in a different order.
``TestSemanticsLiterals`` pins E1 alone; this pins all of them.
"""

import json
import os

from repro.bench.runner import main as experiments_main
from tests.golden import REGENERATE, ROOT

GOLDEN = os.path.join(ROOT, "results.json")


def differences(expected, actual, where="results"):
    """Paths at which two JSON values differ (ints and floats kept
    apart: ``1`` and ``1.0`` print differently)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        found = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                found.append(f"{where}.{key}: only in "
                             f"{'golden' if key in expected else 'run'}")
            else:
                found += differences(expected[key], actual[key],
                                     f"{where}.{key}")
        return found
    if isinstance(expected, list) and isinstance(actual, list):
        found = [] if len(expected) == len(actual) else [
            f"{where}: golden has {len(expected)} items, "
            f"run {len(actual)}"]
        for index, (left, right) in enumerate(zip(expected, actual)):
            found += differences(left, right, f"{where}[{index}]")
        return found
    if type(expected) is type(actual) and expected == actual:
        return []
    return [f"{where}: golden {expected!r}, run {actual!r}"]


def test_experiments_match_committed_results(tmp_path, capsys):
    out = tmp_path / "results.json"
    status = experiments_main(["--json", str(out)])
    capsys.readouterr()
    assert status == 0, "an experiment diverged from the paper's claims"
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    with open(out, encoding="utf-8") as handle:
        produced = json.load(handle)
    found = differences(golden, produced)
    assert not found, (f"{len(found)} value(s) differ from results.json "
                       f"({REGENERATE}):\n" + "\n".join(found[:20]))
    assert [doc["experiment"] for doc in golden["experiments"]] == [
        "A1", "D1", "E1", "E2", "E3", "E4", "E5", "F3", "F5", "G1", "M1",
        "R1", "R2", "R3"]
