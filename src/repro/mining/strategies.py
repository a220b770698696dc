"""Deployment strategies for the link-mining task.

The paper compares two ways of running the same robot:

- **stationary** (the baseline): the robot runs at the client
  workstation and pulls every page over the network;
- **mobile** (the contribution): the wrapped robot relocates to the web
  server, crawls over loopback, and ships only the condensed report
  back.

This module implements both — plus the **itinerant** multi-server audit
of E4 and its repeated-remote baseline — and measures them identically:
elapsed virtual time and bytes crossing non-loopback links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import wellknown
from repro.robot.linkcheck import validate_rejected
from repro.robot.webbot import Webbot, WebbotConfig
from repro.sim.ledger import CostLedger
from repro.system.bootstrap import Testbed
from repro.mining.webbot_agent import (
    WEBBOT_PRINCIPAL,
    build_webbot_program,
    condense_webbot_result,
    crawl_args,
    make_mwwebbot,
)
from repro.web.client import ClientModel, SimHttpClient
from repro.wrappers.mobility import FAILURES
from repro.wrappers.monitor import EVENT_FOLDER


@dataclass
class CrawlTask:
    """One site to audit."""

    site_host: str
    start_url: str
    prefix: Optional[str] = None
    max_depth: int = 12
    check_rejected: bool = True

    @classmethod
    def for_site(cls, site, max_depth: int = 12,
                 check_rejected: bool = True) -> "CrawlTask":
        return cls(site_host=site.host, start_url=site.root_url,
                   prefix=f"http://{site.host}/", max_depth=max_depth,
                   check_rejected=check_rejected)

    def args(self) -> Dict:
        return crawl_args(self.start_url, prefix=self.prefix,
                          max_depth=self.max_depth,
                          check_rejected=self.check_rejected,
                          site=self.site_host)


@dataclass
class RunMetrics:
    """What one strategy run cost and found."""

    strategy: str
    elapsed_seconds: float
    remote_bytes: int
    remote_messages: int
    reports: List[Dict] = field(default_factory=list)
    failures: List[Dict] = field(default_factory=list)
    monitor_events: List[Dict] = field(default_factory=list)

    @property
    def dead_links_found(self) -> int:
        return sum(len(report.get("invalid", ())) for report in self.reports)

    @property
    def pages_scanned(self) -> int:
        return sum(report.get("pages_scanned", 0) for report in self.reports)

    @property
    def unreachable_hosts(self) -> List[str]:
        """Hosts the itinerary could not reach (``go``-phase failures)."""
        return sorted({f["host"] for f in self.failures
                       if f.get("phase") == "go"})

    def summary_row(self) -> str:
        return (f"{self.strategy:<22} {self.elapsed_seconds:>10.3f}s "
                f"{self.remote_bytes:>12,d}B "
                f"pages={self.pages_scanned:<6d} "
                f"dead={self.dead_links_found}")


def _measure(testbed: Testbed, generator, name: str):
    """Run a scenario, returning (result, elapsed, bytes, messages)."""
    network = testbed.network
    start_time = testbed.kernel.now
    start_bytes = network.total_remote_bytes()
    start_messages = network.total_remote_messages()
    result = testbed.cluster.run(generator, name=name)
    return (result,
            testbed.kernel.now - start_time,
            network.total_remote_bytes() - start_bytes,
            network.total_remote_messages() - start_messages)


# -- stationary baseline ----------------------------------------------------------


def run_stationary(testbed: Testbed, tasks: Sequence[CrawlTask],
                   client_model: Optional[ClientModel] = None,
                   origin_host: Optional[str] = None) -> RunMetrics:
    """The non-mobile robot: crawl every site from the client host."""
    origin = testbed.cluster.hosts.get(
        origin_host or testbed.client.host.name)

    def scenario():
        reports = []
        for task in tasks:
            ledger = CostLedger()
            http = SimHttpClient(origin, testbed.network,
                                 testbed.deployment, ledger,
                                 model=client_model)
            config = WebbotConfig(task.start_url, prefix=task.prefix,
                                  max_depth=task.max_depth)
            result = Webbot(config, http).run()
            if task.check_rejected:
                result["second_pass_invalid"] = validate_rejected(
                    result["rejected"], http)
            else:
                result["second_pass_invalid"] = []
            # The crawl was synchronous; spend its accumulated time now.
            # Flushing the ledger first turns its per-category costs into
            # metrics and cost:<host> spans laid over the sleep we take.
            testbed.kernel.telemetry.flush_ledger(
                ledger, track=f"cost:{origin.name}",
                start=testbed.kernel.now, host=origin.name,
                strategy="stationary", site=task.site_host)
            yield testbed.kernel.timeout(ledger.total_seconds)
            reports.append(condense_webbot_result(result, task.args()))
        return reports

    reports, elapsed, nbytes, nmessages = _measure(
        testbed, scenario(), "stationary-crawl")
    return RunMetrics(strategy="stationary", elapsed_seconds=elapsed,
                      remote_bytes=nbytes, remote_messages=nmessages,
                      reports=reports)


# -- mobile agent strategies -----------------------------------------------------------


def _ensure_principal(testbed: Testbed,
                      principal: str = WEBBOT_PRINCIPAL) -> None:
    cluster = testbed.cluster
    if not any(node.firewall.trust_store.knows(principal)
               for node in cluster.nodes.values()):
        cluster.add_principal(principal, trusted=True)
    else:
        for node in cluster.nodes.values():
            if not node.firewall.trust_store.is_trusted(principal):
                node.firewall.trust_store.trust(principal)


def run_mobile(testbed: Testbed, tasks: Sequence[CrawlTask],
               launch_host: Optional[str] = None,
               monitor: bool = False,
               condense: bool = True,
               extra_wrappers: Sequence = (),
               timeout: float = 100_000.0) -> RunMetrics:
    """The wrapped Webbot: relocate to each server, crawl, report home.

    With one task this is the paper's mwWebbot experiment; with several
    it is the E4 itinerant audit.  ``monitor=True`` adds the rwWebbot
    monitoring wrapper and collects its location reports.
    """
    _ensure_principal(testbed)
    cluster = testbed.cluster
    launch_host = launch_host or testbed.client.host.name
    archs = sorted({node.host.arch for node in cluster.nodes.values()})
    program = build_webbot_program(cluster.keychain, WEBBOT_PRINCIPAL,
                                   archs=archs)
    driver = cluster.node(launch_host).driver(
        name="webbot_home", principal=WEBBOT_PRINCIPAL)

    # Addresses are built without consulting the node registry: a host
    # that is down or unknown must surface as a go() failure at run time
    # (the agent records it and continues), not as a config error here.
    from repro.core.uri import AgentUri
    stops: List[Tuple[str, Dict]] = [
        (str(AgentUri(host=task.site_host, name="vm_python")), task.args())
        for task in tasks]
    briefcase = make_mwwebbot(
        program, stops, home_uri=str(driver.uri),
        monitor_uri=str(driver.uri) if monitor else None,
        condense=condense, extra_wrappers=extra_wrappers)

    strategy = "mobile" if len(tasks) == 1 else "itinerant"
    return run_wrapped(testbed, driver, briefcase, strategy, timeout)


def run_wrapped(testbed: Testbed, driver, briefcase, strategy: str,
                timeout: float) -> RunMetrics:
    """The home side of any wrapped run: launch ``briefcase`` on the
    driver's host, collect monitor events until the agent's report (its
    results, its failures, or both) reaches ``driver``, and measure."""
    monitor_events: List[Dict] = []

    def scenario():
        yield from driver.launch(
            testbed.cluster.vm_uri(driver.host_name), briefcase,
            timeout=timeout)
        while True:
            inbound = (yield from driver.recv(timeout=timeout)).briefcase
            event = inbound.get_first(EVENT_FOLDER)
            if event is not None:
                monitor_events.append(event.as_json())
            elif inbound.has(wellknown.RESULTS) or inbound.has(FAILURES):
                return ([e.as_json()
                         for e in inbound.folder(wellknown.RESULTS)],
                        [e.as_json() for e in inbound.folder(FAILURES)])

    (reports, failures), elapsed, nbytes, nmessages = _measure(
        testbed, scenario(), strategy)
    return RunMetrics(strategy=strategy, elapsed_seconds=elapsed,
                      remote_bytes=nbytes, remote_messages=nmessages,
                      reports=reports, failures=failures,
                      monitor_events=monitor_events)


def run_repeated_remote(testbed: Testbed, tasks: Sequence[CrawlTask],
                        client_model: Optional[ClientModel] = None
                        ) -> RunMetrics:
    """E4 baseline: the stationary robot pointed at each server in turn."""
    metrics = run_stationary(testbed, tasks, client_model=client_model)
    metrics.strategy = "repeated-remote"
    return metrics
