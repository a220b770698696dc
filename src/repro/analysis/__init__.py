"""repro.analysis: determinism & safety static analysis + sanitizer.

The correctness-tooling layer (architecture §10): an AST rule engine
with this codebase's invariants as the rule pack (``repro lint``),
inline suppressions, JSON + SARIF output, and a dynamic
briefcase-aliasing sanitizer that rides the folder version counters at
runtime.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".engine": "Analyzer LintContext Rule RULES register rule_index",
    ".findings": (
        "Finding Report WitnessStep render_json render_sarif render_text"),
    ".callgraph": "Project export_dot export_json",
    ".dataflow": "Dataflow",
    ".iprules": (
        "PROJECT_RULES ProjectRule project_rule_index register_project"),
    ".sanitizer": (
        "AliasingSanitizer RULE_ALIASING RULE_CONFLICT SANITIZER_RULES "
        "run_sanitized_scenarios sanitizing"),
})
