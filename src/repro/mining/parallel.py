"""Parallel fan-out audits: spawn() instead of an itinerary.

The paper's ``spawn()`` "creates a new agent with a different instance
number ... this resembles the Unix fork() system call".  For a campus
audit that primitive buys wall-clock parallelism: instead of one agent
hopping server to server (E4), a root agent *forks one clone per
server*; the clones crawl concurrently and each ships its condensed
report home independently.

Total work is the same; completion time drops from the sum of the
per-server crawls to roughly the slowest one (experiment E5).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.briefcase import Briefcase
from repro.core.errors import MigrationError, TaxError
from repro.core import wellknown
from repro.system.bootstrap import Testbed
from repro.mining.strategies import RunMetrics, _ensure_principal, _measure
from repro.mining.webbot_agent import (
    WEBBOT_PRINCIPAL,
    build_webbot_program,
    condense_webbot_result,
    make_mwwebbot,
)
from repro.wrappers.mobility import (
    CURRENT_STOP,
    FAILURES,
    _execute_here,
    _postprocess,
)

ROLE_FOLDER = "PA-ROLE"
EXPECTED_FOLDER = "PA-EXPECTED"


def parallel_audit_agent(ctx, briefcase: Briefcase):
    """Root: fork one worker per stop.  Worker: crawl here, report home."""
    role = briefcase.get_text(ROLE_FOLDER, "root")
    home = briefcase.get_text("HOME")

    if role == "worker":
        stop = briefcase.get_json(CURRENT_STOP)
        report = Briefcase()
        try:
            raw = yield from _execute_here(ctx, briefcase, stop)
            condensed = _postprocess(briefcase, raw, stop.get("args", {}))
            report.append(wellknown.RESULTS, condensed)
        except TaxError as exc:
            report.append(FAILURES, {
                "host": ctx.host_name, "phase": "exec", "error": str(exc)})
        yield from ctx.send(home, report)
        return "worker-done"

    # Root role: fork the fleet.
    stops = [e.as_object("vm") for e in briefcase.folder("ITINERARY")]
    briefcase.drop("ITINERARY")
    briefcase.put(ROLE_FOLDER, "worker")
    failures: List[Dict] = []
    forked = 0
    for stop in stops:
        briefcase.put(CURRENT_STOP, stop)
        try:
            yield from ctx.spawn_to(stop["vm"])
            forked += 1
        except MigrationError as exc:
            failures.append({"host": stop["vm"], "phase": "spawn",
                             "error": str(exc)})
    briefcase.drop(CURRENT_STOP)

    summary = Briefcase()
    summary.put(EXPECTED_FOLDER, forked)
    for failure in failures:
        summary.append(FAILURES, failure)
    yield from ctx.send(home, summary)
    return f"root-forked-{forked}"


def run_parallel_mobile(testbed: Testbed, tasks: Sequence,
                        launch_host: str = None,
                        timeout: float = 1_000_000.0) -> RunMetrics:
    """Fork-join audit of all task sites; one clone per server."""
    _ensure_principal(testbed)
    cluster = testbed.cluster
    launch_host = launch_host or testbed.client.host.name
    archs = sorted({node.host.arch for node in cluster.nodes.values()})
    program = build_webbot_program(cluster.keychain, WEBBOT_PRINCIPAL,
                                   archs=archs)
    driver = cluster.node(launch_host).driver(
        name="parallel_home", principal=WEBBOT_PRINCIPAL)

    from repro.core.uri import AgentUri
    stops: List[Tuple[str, Dict]] = [
        (str(AgentUri(host=task.site_host, name="vm_python")), task.args())
        for task in tasks]
    briefcase = make_mwwebbot(program, stops, home_uri=str(driver.uri),
                              agent_name="pa_root")
    # Swap the itinerant entry point for the fork-join one.
    from repro.vm import loader
    loader.install_payload(briefcase, loader.pack_ref(parallel_audit_agent),
                           agent_name="pa_root")

    def scenario():
        yield from driver.launch(
            cluster.vm_uri(launch_host), briefcase, timeout=timeout)
        expected = None
        reports: List[Dict] = []
        spawn_failures: List[Dict] = []
        worker_failures: List[Dict] = []
        while expected is None or \
                len(reports) + len(worker_failures) < expected:
            message = yield from driver.recv(timeout=timeout)
            inbound = message.briefcase
            if inbound.has(EXPECTED_FOLDER):
                expected = int(inbound.get_json(EXPECTED_FOLDER))
                spawn_failures.extend(e.as_json()
                                      for e in inbound.folder(FAILURES))
                continue
            reports.extend(e.as_json()
                           for e in inbound.folder(wellknown.RESULTS))
            worker_failures.extend(e.as_json()
                                   for e in inbound.folder(FAILURES))
        return reports, spawn_failures + worker_failures

    (reports, failures), elapsed, nbytes, nmessages = _measure(
        testbed, scenario(), "parallel-mobile")
    return RunMetrics(strategy="parallel-mobile", elapsed_seconds=elapsed,
                      remote_bytes=nbytes, remote_messages=nmessages,
                      reports=reports, failures=failures)
