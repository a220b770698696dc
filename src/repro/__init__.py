"""repro — reproduction of "Adding Mobility to Non-mobile Web Robots"
(Sudmann & Johansen, ICDCS 2000).

The package implements the TAX 2.0 mobile-agent system and its
surroundings on a deterministic discrete-event simulation:

- :mod:`repro.core` — briefcases, folders, elements, agent URIs;
- :mod:`repro.agent` — the TAX library (activate/await/meet/go/spawn);
- :mod:`repro.firewall` — per-host reference monitor, auth, queues;
- :mod:`repro.vm` — virtual machines and code shipping;
- :mod:`repro.services` — ag_exec, ag_cc, ag_fs, ag_cabinet, ag_cron,
  ag_locator;
- :mod:`repro.wrappers` — stackable wrappers (mobility, monitoring,
  group communication, location, logging, checkpointing);
- :mod:`repro.sim` / :mod:`repro.web` / :mod:`repro.robot` — the
  substrates: event kernel + network, synthetic web, and the stationary
  Webbot clone;
- :mod:`repro.system` — nodes, clusters, standard testbeds;
- :mod:`repro.mining` — the wrapped-Webbot dead-link case study;
- :mod:`repro.bench` — experiment configurations and harnesses.

Quick start::

    from repro.system import build_linkcheck_testbed
    from repro.mining import CrawlTask, run_mobile, run_stationary

    testbed = build_linkcheck_testbed()
    task = CrawlTask.for_site(testbed.site_of("www.cs.uit.no"))
    remote = run_stationary(testbed, [task])
    local = run_mobile(testbed, [task])
    print(remote.summary_row())
    print(local.summary_row())
"""

__version__ = "1.0.0"

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".core.briefcase": "Briefcase",
    ".core.uri": "AgentUri",
    ".core.element": "Element",
    ".core.folder": "Folder",
    ".system.cluster": "TaxCluster",
    ".system.node": "TaxNode",
    ".system.bootstrap": (
        "Testbed build_campus_testbed build_linkcheck_testbed"),
})
__all__.append("__version__")
