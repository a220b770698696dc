"""The log-mining workload: generate access logs, publish them, mine them.

Experiment D1's substrate: a synthetic Common-Log-Format access log for
a generated site (zipf page popularity, a pool of client hosts, a
realistic 404 tail), published as a plain-text resource on the site's
own server.  The same self-contained analyzer program then runs either
at the client (downloading the whole log) or inside the mobility
wrapper at the server (loopback fetch, ship only the aggregates).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.robot import loganalyzer as _loganalyzer_module
from repro.robot.loganalyzer import analyze_log
from repro.sim.rng import RandomStream, stream_from
from repro.firewall.auth import KeyChain
from repro.mining.strategies import (
    RunMetrics,
    _ensure_principal,
    _measure,
    run_wrapped,
)
from repro.mining.webbot_agent import WEBBOT_PRINCIPAL, link_sources
from repro.system.bootstrap import Testbed
from repro.vm import loader
from repro.web.page import Page
from repro.web.site import Site
from repro.wrappers.mobility import make_task_briefcase

LOG_PATH = "/logs/access.log"
PROGRAM_ENTRY = "run_log_analysis"

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def generate_access_log(site: Site, n_requests: int,
                        rng: Optional[RandomStream] = None,
                        seed: int = 0,
                        n_visitors: int = 200,
                        error_fraction: float = 0.04) -> str:
    """A deterministic CLF access log for ``site``."""
    rng = stream_from(rng if rng is not None else seed, "accesslog")
    paths = sorted(site.pages)
    visitors = [f"10.{rng.randint(0, 250)}.{rng.randint(0, 250)}."
                f"{rng.randint(1, 250)}" for _ in range(n_visitors)]
    lines: List[str] = []
    second = 0
    for _ in range(n_requests):
        second += rng.randint(0, 3)
        day = 1 + (second // 86_400) % 27
        hh = (second // 3600) % 24
        mm = (second // 60) % 60
        ss = second % 60
        timestamp = (f"{day:02d}/{_MONTHS[6]}/1999:"
                     f"{hh:02d}:{mm:02d}:{ss:02d} +0100")
        visitor = visitors[rng.zipf_index(len(visitors), skew=0.8)]
        if rng.chance(error_fraction):
            path = f"/old/gone{rng.randint(0, 40):03d}.html"
            status, size = 404, 210
        else:
            path = paths[rng.zipf_index(len(paths), skew=1.0)]
            status = 200
            size = site.pages[path].size
        lines.append(f'{visitor} - - [{timestamp}] '
                     f'"GET {path} HTTP/1.0" {status} {size}')
    return "\n".join(lines) + "\n"


def publish_log(site: Site, log_text: str, path: str = LOG_PATH) -> Page:
    """Expose the log as a plain-text resource on the site."""
    page = Page(path=path, html=log_text, links=[],
                content_type="text/plain")
    site.pages[path] = page
    return page


def build_loganalyzer_program(keychain: KeyChain,
                              principal: str = WEBBOT_PRINCIPAL,
                              archs: Sequence[str] = ("x86-unix",)
                              ) -> loader.Payload:
    """The analyzer, shipped exactly like the Webbot: linked source,
    compiled, signed per architecture."""
    source = link_sources([_loganalyzer_module])
    source_payload = loader.pack_source(source, PROGRAM_ENTRY,
                                        origin="loganalyzer-linked")
    compiled = loader.compile_source(source_payload)
    return loader.pack_binary_list(
        [(arch, compiled) for arch in archs], keychain, principal)


def mining_args(site_host: str, top_k: int = 10,
                log_path: str = LOG_PATH) -> Dict:
    return {"log_url": f"http://{site_host}{log_path}", "top_k": top_k}


# -- strategies ---------------------------------------------------------------------


def run_log_stationary(testbed: Testbed, site_host: str,
                       top_k: int = 10) -> RunMetrics:
    """Download the log to the client, mine it there."""
    from repro.sim.ledger import CostLedger
    from repro.web.client import SimHttpClient
    origin = testbed.cluster.hosts.get(testbed.client.host.name)

    def scenario():
        ledger = CostLedger()
        http = SimHttpClient(origin, testbed.network, testbed.deployment,
                             ledger)
        args = mining_args(site_host, top_k=top_k)
        response = http.get(args["log_url"])
        if not response.ok:
            raise RuntimeError(f"log fetch failed: {response.status}")
        stats = analyze_log(response.body, top_k=top_k)
        stats["log_url"] = args["log_url"]
        stats["log_bytes"] = len(response.body.encode("utf-8"))
        # Analysis CPU: charged per byte like any client-side handling.
        ledger.add_cpu(stats["log_bytes"] * 1.5e-6)
        yield testbed.kernel.timeout(ledger.total_seconds)
        return [stats]

    reports, elapsed, nbytes, nmessages = _measure(
        testbed, scenario(), "log-stationary")
    return RunMetrics(strategy="log-stationary", elapsed_seconds=elapsed,
                      remote_bytes=nbytes, remote_messages=nmessages,
                      reports=reports)


def run_log_mobile(testbed: Testbed, site_host: str,
                   top_k: int = 10,
                   timeout: float = 1_000_000.0) -> RunMetrics:
    """Ship the analyzer to the server through the mobility wrapper."""
    _ensure_principal(testbed)
    cluster = testbed.cluster
    archs = sorted({node.host.arch for node in cluster.nodes.values()})
    program = build_loganalyzer_program(cluster.keychain,
                                        WEBBOT_PRINCIPAL, archs=archs)
    driver = cluster.node(testbed.client.host.name).driver(
        name="logminer_home", principal=WEBBOT_PRINCIPAL)
    briefcase = make_task_briefcase(
        program,
        [{"vm": str(cluster.vm_uri(site_host)),
          "args": mining_args(site_host, top_k=top_k)}],
        home_uri=str(driver.uri), agent_name="mwLogMiner")

    return run_wrapped(testbed, driver, briefcase, "log-mobile", timeout)
