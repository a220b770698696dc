"""The ``repro lint`` CLI: self-run gate, determinism, SARIF, exits.

The load-bearing assertions here mirror what CI enforces:

- linting this repository's own source tree finds nothing (exit 0);
- the JSON document is byte-identical across runs (CI diffs two runs);
- seeded fixture files exit non-zero with the expected rule ids.
"""

import json
import os

import pytest

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
CASES = os.path.join(FIXTURES, "cases")


def run_lint(capsys, *argv):
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


def test_self_run_is_clean(capsys):
    """``repro lint`` over src/repro finds nothing."""
    code, out = run_lint(capsys, "--json")
    document = json.loads(out)
    assert code == 0
    assert document["summary"]["total"] == 0
    assert any(path.endswith("core/errors.py")
               for path in document["analyzed"])


def test_self_run_json_is_byte_identical(capsys):
    code_a, out_a = run_lint(capsys, "--json")
    code_b, out_b = run_lint(capsys, "--json")
    assert (code_a, code_b) == (0, 0)
    assert out_a == out_b


def test_fixture_tree_fails_with_expected_rules(capsys):
    code, out = run_lint(capsys, CASES, "--json")
    assert code == 1
    document = json.loads(out)
    rules = set(document["summary"]["by_rule"])
    assert {"DET005", "DET006", "DUR001", "ERR001", "KER001", "OBS001",
            "OBS002"} <= rules
    assert document["summary"]["total"] > 0


def test_single_fixture_exit_and_finding_ids(capsys):
    path = os.path.join(CASES, "det006_popitem.py")
    code, out = run_lint(capsys, path, "--json")
    assert code == 1
    findings = json.loads(out)["findings"]
    assert [f["rule"] for f in findings] == ["DET006"]
    assert findings[0]["line"] == 5
    assert findings[0]["fingerprint"]


def test_text_output_mentions_locations(capsys):
    path = os.path.join(CASES, "det006_popitem.py")
    code, out = run_lint(capsys, path)
    assert code == 1
    assert "det006_popitem.py:5:" in out
    assert "DET006" in out


def test_sarif_document(tmp_path, capsys):
    sarif_path = str(tmp_path / "lint.sarif")
    code, _out = run_lint(capsys, CASES, "--json", "--sarif", sarif_path)
    assert code == 1
    with open(sarif_path) as handle:
        document = json.load(handle)
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    # Static pack and sanitizer rules are both declared to the viewer.
    assert {"DET005", "SAN001", "SAN002"} <= rule_ids
    assert run["results"]
    assert all(r["partialFingerprints"]["reproLint/v1"]
               for r in run["results"])


@pytest.mark.parametrize("removed", [
    ["--baseline", "baseline.json"], ["--no-baseline"],
    ["--write-baseline"]], ids=["baseline", "no-baseline", "write-baseline"])
def test_there_is_no_baseline_option(removed, capsys):
    path = os.path.join(CASES, "det006_popitem.py")
    with pytest.raises(SystemExit) as refused:
        main(["lint", path, *removed])
    assert refused.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_an_inline_suppression_is_the_one_way_to_pass(tmp_path, capsys):
    source = ("def drain(mapping):\n"
              "    return mapping.popitem(){}\n")
    module = tmp_path / "drain.py"
    module.write_text(source.format(""))
    code, out = run_lint(capsys, str(module))
    assert code == 1
    assert "DET006" in out and "1 finding(s)" in out
    module.write_text(source.format(
        "  # lint: disable=DET006 - the caller empties the mapping"))
    code, out = run_lint(capsys, str(module), "--json")
    assert code == 0
    assert json.loads(out)["summary"]["total"] == 0


def test_syntax_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    code, _out = run_lint(capsys, str(bad))
    assert code == 2


def test_graph_syntax_error_exits_2(tmp_path, capsys):
    """``--graph`` loads files the way lint does: no silent skips."""
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    code, _out = run_lint(capsys, str(bad), "--graph", "json")
    assert code == 2


def test_sanitize_runs_the_reference_scenarios_clean(capsys):
    """``--sanitize`` adds the runtime aliasing pass over the quickstart,
    the chaos mid-crash run and E1; on this tree it finds nothing."""
    from repro.analysis.sanitizer import run_sanitized_scenarios
    assert run_sanitized_scenarios() == []
    code, out = run_lint(capsys, "--sanitize", "--json")
    document = json.loads(out)
    assert code == 0
    assert not any(f["rule"].startswith("SAN")
                   for f in document["findings"])
    assert not any(path.startswith("runtime:")
                   for path in document["analyzed"])


def test_a_runtime_finding_fails_the_sanitize_gate(capsys, monkeypatch):
    from repro.analysis import sanitizer
    from repro.analysis.findings import Finding
    finding = Finding(rule="SAN001", severity="error",
                      path="runtime:probe", line=0, col=0,
                      message="one folder, two live agents",
                      snippet="folder=NOTE agents=a|b")
    monkeypatch.setattr(sanitizer, "run_sanitized_scenarios",
                        lambda: [finding])
    path = os.path.join(CASES, "..", "scoped")
    code, out = run_lint(capsys, path, "--sanitize", "--json")
    document = json.loads(out)
    assert code == 1
    runtime = [f for f in document["findings"]
               if f["path"] == "runtime:probe"]
    assert [(f["rule"], f["message"]) for f in runtime] == [
        ("SAN001", "one folder, two live agents")]
    assert runtime[0]["fingerprint"]
    assert "runtime:probe" in document["analyzed"]
