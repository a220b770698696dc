"""Whole-program analysis: call graph, effect dataflow, witness chains.

Each whole-program rule has a seeded fixture tree under
``tests/fixtures/lint/ipa`` where the offending call is laundered
through an alias, a ``functools.partial``, a cross-module hop, a method
on ``self``, or a retry loop, and the project pass reports it — with
the call chain as a witness.  These tests pin the rule ids, lines, and
witness hops per fixture, plus the engine guarantees the workflow
depends on: byte-determinism, witness-independent fingerprints, and the
decorated-``def`` suppression span.
"""

import json
import os
import shutil

import pytest

import repro
from repro.analysis import PROJECT_RULES, Analyzer, export_json
from repro.analysis.findings import fingerprinted, render_json, sort_findings
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
IPA = os.path.join(FIXTURES, "ipa")


def lint_tree(*parts):
    report = Analyzer().analyze_paths([os.path.join(IPA, *parts)])
    return sort_findings(report.findings)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def witness_functions(finding):
    return [step.function for step in finding.witness]


def test_project_rule_pack_registered():
    assert sorted({rule.id for rule in PROJECT_RULES}) == [
        "ASY001", "ERR002", "ERR003", "KER001", "WIRE001"]


def test_ker001_transitive_through_module_alias():
    findings = lint_tree("ker001_chain")
    assert [(f.rule, f.line) for f in findings] == [
        ("KER001", 16), ("KER001", 28)]
    transitive, direct = findings
    # The laundered call carries the full chain: callers first, then
    # the hop where the heap push actually happens.
    assert witness_functions(transitive) == [
        "pipeline.deliver", "pipeline.build_record", "pipeline.stamp"]
    assert "alias bound at line 12" in transitive.message
    # The honest heapq.heappush() call has no callers: its witness is
    # the one origin step, and it keeps the direct wording.
    assert witness_functions(direct) == ["pipeline.honest_stamp"]
    assert direct.witness[0].note == "heapq.heappush()"
    assert direct.message.startswith(
        "heapq.heappush() keeps a private heap")


def test_ker001_transitive_through_partial():
    findings = lint_tree("ker001_partial")
    assert [(f.rule, f.line) for f in findings] == [("KER001", 15)]
    finding = findings[0]
    assert "functools.partial bound at line 11" in finding.message
    assert witness_functions(finding) == [
        "jitterlib.plan_backoff", "jitterlib.jitter"]


def test_asy001_cross_module_blocking_call_scoped():
    findings = lint_tree("asy001_chain")
    # Only the transport-clean entry point reports: the out-of-scope
    # helper module holding time.sleep is not itself a finding.
    assert [(f.rule, f.path.endswith("repro/core/codec.py"), f.line)
            for f in findings] == [("ASY001", True, 15)]
    finding = findings[0]
    assert witness_functions(finding) == [
        "repro.core.codec.build_frame",
        "repro.core.codec.resolve_pause",
        "repro.util.waits.deep_pause",
        "repro.util.waits.pause"]
    assert finding.witness[-1].note == "time.sleep()"


def test_ker001_transitive_heap_alias():
    findings = lint_tree("ker001_alias")
    assert [(f.rule, f.line) for f in findings] == [
        ("KER001", 9), ("KER001", 15)]
    direct_import, transitive = findings
    assert witness_functions(direct_import) == ["heapuser.<module>"]
    assert direct_import.witness[0].note == "import heapq"
    assert "heapq.heappush called through an alias" in transitive.message
    assert witness_functions(transitive) == [
        "heapuser.schedule_batch", "heapuser.enqueue"]


def test_ker001_through_methods_on_self():
    findings = lint_tree("ker001_methods")
    assert [(f.rule, f.line) for f in findings] == [
        ("KER001", 15), ("KER001", 24)]
    direct, alias = findings
    # self._push() resolves through the attribute alias bound in
    # __init__; self._stamp() and self.record() resolve to methods,
    # the latter from a def nested in a method, and the method's call
    # of that nested def resolves to it.
    assert "alias bound at line 21" in alias.message
    assert witness_functions(alias) == [
        "ledger.Ledger.replay", "ledger.Ledger.replay.one",
        "ledger.Ledger.record", "ledger.Ledger._stamp"]
    # self.agenda.next() resolves through the attribute's type.
    assert witness_functions(direct)[-2:] == [
        "ledger.Ledger._stamp", "ledger.Agenda.next"]


@pytest.fixture(scope="module")
def src_graph():
    _report, project, _flow = Analyzer().run(
        [os.path.dirname(repro.__file__)])
    return project.graph


def call_targets(graph, caller):
    return {edge.callee for edge in graph[caller] if edge.kind == "call"}


def test_src_graph_resolves_calls_on_self(src_graph):
    assert "repro.vm.base.VirtualMachine.launch_agent" in call_targets(
        src_graph, "repro.vm.base.VirtualMachine.handle_launch_message")


def test_src_graph_resolves_calls_to_nested_defs(src_graph):
    # ``itinerary`` is nested in ``_survey``; ``_poster`` in a method.
    assert "repro.chaos.harness._survey.itinerary" in call_targets(
        src_graph, "repro.chaos.harness._survey")
    assert "repro.agent.context.AgentContext.post._poster" in \
        call_targets(src_graph, "repro.agent.context.AgentContext.post")


def test_err002_retry_burns_on_permanent_error():
    findings = lint_tree("err002_retry")
    assert [(f.rule, f.line) for f in findings] == [("ERR002", 31)]
    finding = findings[0]
    assert "AccessDeniedError" in finding.message
    assert "transient=False" in finding.message
    assert witness_functions(finding) == [
        "client.fetch_with_retries", "client.fetch_sealed",
        "client.open_channel"]
    assert "raises AccessDeniedError" in finding.witness[-1].note
    # Guarded, narrowed, and re-raising retry loops stay silent
    # (fetch_guarded / fetch_narrow / fetch_reraising in the fixture),
    # and so does a loop over distinct items (fetch_each).


def test_err003_tax_error_handler_reaches_untyped_parse():
    findings = lint_tree("err003_untyped")
    assert [(f.rule, f.line) for f in findings] == [("ERR003", 35)]
    finding = findings[0]
    assert "json.loads() in read_spec" in finding.message
    assert witness_functions(finding) == [
        "repro.launcher.land", "repro.launcher.read_specs",
        "repro.launcher.read_spec"]
    # A parse inside a try that converts its error (read_typed) carries
    # no effect, and a handler that is not TaxError-only (land_broadly)
    # is no finding.


def test_wire001_reserved_folder_write_without_strip_path():
    findings = lint_tree("wire001_reserved")
    assert [(f.rule, f.path.split("wire001_reserved/")[1], f.line)
            for f in findings] == [
        ("WIRE001", "repro/mailer.py", 12),
        ("WIRE001", "repro/obs/propagation.py", 25)]
    stray, leak = findings
    assert "TRACE-CONTEXT" in stray.message
    # inject/from_header in repro.obs.propagation is the sanctioned
    # pairing and produces nothing; the mailer's stray write does, and
    # so does a second writer beside the pair (sharing its module
    # sanctions nothing).
    assert witness_functions(stray) == [
        "repro.mailer.send_with_trace", "repro.mailer.stamp_trace"]
    assert witness_functions(leak) == ["repro.obs.propagation.leak"]


def test_asy001_transport_clean_scope():
    findings = lint_tree("asy001_transport")
    assert [(f.rule, f.severity, f.line) for f in findings] == [
        ("ASY001", "warning", 17), ("ASY001", "warning", 30)]
    sim_coupled, blocking = findings
    assert "virtual time" in sim_coupled.message
    assert witness_functions(sim_coupled) == [
        "repro.core.retry.send_with_backoff", "repro.core.retry.backoff",
        "repro.sim.pacing.paced_wait"]
    assert "time.sleep" in blocking.message


def test_project_findings_are_byte_deterministic():
    analyzer = Analyzer()
    first = render_json(analyzer.analyze_paths([IPA]))
    second = render_json(Analyzer().analyze_paths([IPA]))
    assert first == second


def test_witness_does_not_feed_the_fingerprint(tmp_path):
    """A transitive finding keeps its fingerprint across edits to its
    callers: the witness chain is reporting detail, not identity."""
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(IPA, "ker001_chain"), str(tree))

    def transitive():
        report = Analyzer().analyze_paths([str(tree)])
        finding = fingerprinted(sort_findings(report.findings))[0]
        assert finding.rule == "KER001" and finding.witness
        return finding

    before = transitive()
    # Push the callers down two lines: every witness hop moves, but the
    # finding's own snippet and occurrence index do not.
    target = tree / "pipeline.py"
    target.write_text(target.read_text().replace(
        "def build_record(", "# shifted\n# shifted\ndef build_record("))
    after = transitive()
    assert [s.line for s in before.witness] != [s.line for s in after.witness]
    assert before.fingerprint == after.fingerprint


def test_suppression_spans_decorated_def_header():
    """``# lint: disable=RULE`` anywhere on a decorated ``def`` header
    (decorator lines through the ``def`` line) covers the whole
    statement — the decorator expression included."""
    deco = ("def deco(stamp):\n"
            "    def wrap(fn):\n"
            "        return fn\n"
            "    return wrap\n")
    analyzer = Analyzer()
    heapq = "import heapq  # lint: disable=KER001\n"
    on_def = (heapq + deco +
              "@deco(heapq.heapify([]))\n"
              "def f():  # lint: disable=KER001\n"
              "    return 1\n")
    assert analyzer.analyze_source(on_def) == []
    on_decorator = (heapq + deco +
                    "@deco(1)  # lint: disable=KER001\n"
                    "def g(t=heapq.heapify([])):\n"
                    "    return t\n")
    assert analyzer.analyze_source(on_decorator) == []
    unsuppressed = (heapq + deco +
                    "@deco(heapq.heapify([]))\n"
                    "def h():\n"
                    "    return 1\n")
    assert [f.rule for f in analyzer.analyze_source(unsuppressed)] == \
        ["KER001"]


def test_a_function_applied_as_a_decorator_is_an_origin():
    source = ("import heapq  # lint: disable=KER001\n"
              "@heapq.heapify\n"
              "def tasks():\n"
              "    return []\n")
    findings = Analyzer().analyze_source(source)
    assert [(f.rule, f.line) for f in findings] == [("KER001", 2)]
    assert "heapq.heapify applied as a decorator" in findings[0].message


def test_graph_json_export_is_deterministic():
    _report, project, flow = Analyzer().run([IPA])
    first = export_json(project, flow.effects)
    _report, project, flow = Analyzer().run([IPA])
    assert first == export_json(project, flow.effects)
    document = json.loads(first)
    assert document["tool"] == "repro-lint-graph"
    assert document["summary"]["functions"] == len(document["nodes"])
    by_name = {node["function"]: node for node in document["nodes"]}
    assert "kernel-bypass" in by_name["pipeline.stamp"]["effects"]
    assert any(edge["from"] == "pipeline.deliver"
               and edge["to"] == "pipeline.build_record"
               for edge in document["edges"])


def test_graph_cli_flags(tmp_path, capsys):
    code = main(["lint", IPA, "--graph", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["tool"] == "repro-lint-graph"
    code = main(["lint", IPA, "--graph", "dot"])
    dot = capsys.readouterr().out
    assert code == 0
    assert dot.startswith("digraph callgraph {")
    assert '"pipeline.deliver" -> "pipeline.build_record";' in dot


def test_cli_json_includes_witness_and_sarif_related_locations(
        tmp_path, capsys):
    sarif_path = str(tmp_path / "ipa.sarif")
    code = main(["lint", os.path.join(IPA, "asy001_chain"), "--json",
                 "--sarif", sarif_path])
    out = capsys.readouterr().out
    assert code == 1
    finding = json.loads(out)["findings"][0]
    assert [step["function"] for step in finding["witness"]][-1] == \
        "repro.util.waits.pause"
    with open(sarif_path) as handle:
        sarif = json.load(handle)
    result = sarif["runs"][0]["results"][0]
    assert len(result["relatedLocations"]) == 4
    rule_ids = {rule["id"] for rule in
                sarif["runs"][0]["tool"]["driver"]["rules"]}
    # Interprocedural-only rules are declared to the SARIF viewer too.
    assert {"ERR002", "WIRE001", "ASY001"} <= rule_ids
