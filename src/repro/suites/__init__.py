"""Declarative experiment suites: scenario plugins plus a matrix runner.

``repro.suites`` registers the repo's scenario drivers (chaos,
partition, crashtest, overload, the paper experiments) as
:class:`ScenarioPlugin`\\ s — the one entry point the CLI commands of
the same names go through — and executes YAML/JSON-declared parameter
matrices over them deterministically — per-cell seeds derive from the
suite seed and the cell identity, so every suite document is a pure
function of ``(suite file, seed)``.  See ``docs/experiments.md``.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".registry": (
        "ParamSpec ScenarioPlugin SuiteError UnknownPluginError "
        "ensure_builtin_plugins get_plugin plugin_descriptions plugin_names "
        "register_plugin"),
    ".runner": (
        "SUITE_SCHEMA cell_seed document_digest evaluate_check parse_check "
        "render_suite_json run_cell run_suite suite_ok"),
    ".schema": (
        "EARLY_STOP_POLICIES CellSpec SuiteConfigError SuiteSpec load_suite "
        "parse_suite"),
})
