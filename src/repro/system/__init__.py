"""Deployment layer: nodes, clusters, and standard testbeds."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".bootstrap": (
        "CLIENT_HOST DEFAULT_EXTERNAL_HOSTS SERVER_HOST Testbed "
        "build_campus_testbed build_linkcheck_testbed"),
    ".cluster": "TaxCluster",
    ".node": "TaxNode",
})
