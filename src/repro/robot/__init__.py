"""The web robot (COTS Webbot stand-in) and its surrounding tooling.

- :mod:`repro.robot.webbot` — the self-contained, agent-oblivious robot
  (this is the code the mobility wrapper ships by value);
- :mod:`repro.robot.linkcheck` — the wrapper-side second pass over
  rejected links;
- :mod:`repro.robot.report` — condensed dead-link reports.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".checkbot": "Checkbot CheckbotConfig run_checkbot",
    ".loganalyzer": "analyze_log parse_log_line run_log_analysis",
    ".linkcheck": "CHECKABLE_REASONS probe_url validate_rejected",
    ".report": "DeadLinkReport merge_reports",
    ".webbot": (
        "WEBBOT_VERSION Webbot WebbotConfig extract_links join_url "
        "parse_robots_txt run_webbot"),
})
