"""The dead-link mining case study (paper section 5) and its
generalisations: parallel fan-out, a second robot, log mining."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".generality": (
        "build_checkbot_program checkbot_args condense_checkbot_result "
        "run_checkbot_mobile"),
    ".logmining": (
        "build_loganalyzer_program generate_access_log publish_log "
        "run_log_mobile run_log_stationary"),
    ".parallel": "parallel_audit_agent run_parallel_mobile",
    ".strategies": (
        "CrawlTask RunMetrics run_mobile run_repeated_remote run_stationary"),
    ".webbot_agent": (
        "PROGRAM_ENTRY WEBBOT_PRINCIPAL build_webbot_program "
        "build_webbot_program_source condense_webbot_result crawl_args "
        "link_sources make_mwwebbot query_status"),
})
