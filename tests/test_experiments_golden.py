"""Every row of every experiment, held to the committed ``results.json``.

The virtual-time results (E1-E5, A1, D1, F3, F5, G1, M1, R1-R3) are pure
functions of the seed, so the suite document ``repro experiments
--json`` writes is compared with the committed one value for value —
floats exact, which is what catches a float accumulated in a different
order.  ``TestSemanticsLiterals`` pins E1 alone; this pins all of them,
with every claim's observed values and margin.  ``repro experiments``
and ``repro suite run examples/paper.suite.yaml`` are one suite.
"""

import json
import os

import pytest

from repro.bench.experiments import SEEDED_EXPERIMENTS
from repro.cli import main
from repro.suites.schema import load_suite
from tests.golden import REGENERATE, ROOT

GOLDEN = os.path.join(ROOT, "results.json")
PAPER_SUITE = os.path.join(ROOT, "examples", "paper.suite.yaml")


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


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    out = tmp_path_factory.mktemp("experiments") / "results.json"
    status = main(["experiments", "--json", str(out)])
    assert status == 0, "an experiment diverged from the paper's claims"
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_experiments_match_committed_results(produced):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    found = differences(golden, produced)
    assert not found, (f"{len(found)} value(s) differ from results.json "
                       f"({REGENERATE}):\n" + "\n".join(found[:20]))
    assert [cell["document"]["experiment"] for cell in golden["cells"]] == [
        "A1", "D1", "E1", "E2", "E3", "E4", "E5", "F3", "F5", "G1", "M1",
        "R1", "R2", "R3"]


def test_experiments_command_is_the_paper_suite(produced, tmp_path, capsys):
    out = tmp_path / "paper.json"
    assert main(["suite", "run", PAPER_SUITE, "--json", str(out)]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as handle:
        suite = json.load(handle)
    assert suite["cells"] == produced["cells"]
    assert suite == produced


def test_margin_sweep_covers_every_seeded_experiment():
    """EXPERIMENTS.md's margin table comes from this suite: every
    experiment that takes a seed, at seeds 1-30."""
    spec = load_suite(os.path.join(ROOT, "examples",
                                   "paper-sweep.suite.yaml"))
    assert sorted((cell.params_dict()["id"], cell.explicit_seed)
                  for cell in spec.cells) == sorted(
        (experiment, seed) for experiment in SEEDED_EXPERIMENTS
        for seed in range(1, 31))
